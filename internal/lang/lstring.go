package lang

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// LString is the basic building block of STARTS queries: a UTF-8 string,
// optionally qualified with the language (and country) it is written in.
//
//	"databases"            -> LString{Text: "databases"}
//	[en-US "behavior"]     -> LString{Tag: en-US, Text: "behavior"}
//
// Per the specification, an unqualified l-string defaults to the query's
// default language (itself defaulting to en-US), and plain ASCII text is
// its own UTF-8 encoding.
type LString struct {
	Tag  Tag
	Text string
}

// L is shorthand for an unqualified l-string.
func L(text string) LString { return LString{Text: text} }

// String renders the l-string in canonical query syntax: a double-quoted,
// backslash-escaped string, wrapped in [tag ...] when language-qualified.
func (l LString) String() string {
	var buf [64]byte
	return string(l.Append(buf[:0]))
}

// Append appends the l-string to dst as String renders it.
func (l LString) Append(dst []byte) []byte {
	if l.Tag.IsZero() {
		return appendQuote(dst, l.Text)
	}
	dst = l.Tag.Append(append(dst, '['))
	return append(appendQuote(append(dst, ' '), l.Text), ']')
}

// Resolve returns the l-string's tag, or def when unqualified.
func (l LString) Resolve(def Tag) Tag {
	if l.Tag.IsZero() {
		return def
	}
	return l.Tag
}

// Quote renders s as a double-quoted string with backslash escapes for the
// quote and backslash characters. All other bytes, including non-ASCII
// UTF-8, pass through verbatim.
func Quote(s string) string {
	var buf [64]byte
	return string(appendQuote(buf[:0], s))
}

func appendQuote(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for _, r := range s {
		if r == '"' || r == '\\' {
			dst = append(dst, '\\')
		}
		dst = utf8.AppendRune(dst, r)
	}
	return append(dst, '"')
}

// ScanLString reads one l-string from the front of s (after leading
// whitespace) and returns it together with the unconsumed remainder.
//
// Two quote styles are accepted: the canonical double-quoted form
// ("databases", with backslash escapes) and the TeX-style “databases”
// form in which the paper's examples are typeset.
func ScanLString(s string) (LString, string, error) {
	s = strings.TrimLeft(s, " \t\r\n")
	if s == "" {
		return LString{}, "", fmt.Errorf("lang: expected l-string, found end of input")
	}
	if s[0] == '[' {
		// [tag "text"]
		body := s[1:]
		sp := strings.IndexAny(body, " \t")
		if sp < 0 {
			return LString{}, "", fmt.Errorf("lang: malformed l-string %q: missing space after tag", s)
		}
		tag, err := ParseTag(body[:sp])
		if err != nil {
			return LString{}, "", err
		}
		text, rest, err := scanQuoted(body[sp:])
		if err != nil {
			return LString{}, "", err
		}
		rest = strings.TrimLeft(rest, " \t\r\n")
		if rest == "" || rest[0] != ']' {
			return LString{}, "", fmt.Errorf("lang: l-string for tag %s missing closing ']'", tag)
		}
		return LString{Tag: tag, Text: text}, rest[1:], nil
	}
	text, rest, err := scanQuoted(s)
	if err != nil {
		return LString{}, "", err
	}
	return LString{Text: text}, rest, nil
}

// scanQuoted reads a quoted string in either accepted style.
func scanQuoted(s string) (text, rest string, err error) {
	s = strings.TrimLeft(s, " \t\r\n")
	switch {
	case strings.HasPrefix(s, "``"):
		end := strings.Index(s[2:], "''")
		if end < 0 {
			return "", "", fmt.Errorf("lang: unterminated ``...'' string in %q", clip(s))
		}
		return s[2 : 2+end], s[2+end+2:], nil
	case strings.HasPrefix(s, `"`):
		// Without an escape or a byte WriteRune would replace, the text is
		// the source's own bytes.
		if end := strings.IndexAny(s[1:], "\"\\"); end >= 0 && s[1+end] == '"' && utf8.ValidString(s[1:1+end]) {
			return s[1 : 1+end], s[2+end:], nil
		}
		var b strings.Builder
		i := 1
		for i < len(s) {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch r {
			case '\\':
				if i+size >= len(s) {
					return "", "", fmt.Errorf("lang: dangling backslash in %q", clip(s))
				}
				r2, size2 := utf8.DecodeRuneInString(s[i+size:])
				b.WriteRune(r2)
				i += size + size2
			case '"':
				return b.String(), s[i+size:], nil
			default:
				b.WriteRune(r)
				i += size
			}
		}
		return "", "", fmt.Errorf("lang: unterminated string in %q", clip(s))
	default:
		return "", "", fmt.Errorf("lang: expected quoted string at %q", clip(s))
	}
}

func clip(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
