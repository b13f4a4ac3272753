// Package text implements the linguistic substrate STARTS sources need:
// named tokenizers, the Porter stemmer, stop-word lists, soundex phonetic
// codes, thesaurus expansion and case folding. Search engines compose these
// into analyzers; sources advertise which ones they use through the
// TokenizerIDList and StopWordList metadata attributes.
package text

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Token is a single indexable unit extracted from text, with its word
// position (0-based) for proximity evaluation.
type Token struct {
	Text string
	Pos  int
}

// Tokenizer extracts indexable tokens from a string. STARTS deliberately
// treats tokenizers as named black boxes: a source names its tokenizer
// (for example "Acme-1") in its metadata, and a metasearcher learns how a
// tokenizer behaves by examining the actual queries a source reports back.
type Tokenizer interface {
	// ID is the tokenizer's registered name, e.g. "Acme-1".
	ID() string
	// Tokenize appends the tokens of text, with word positions counted
	// from 0, to dst and returns the extended slice.
	Tokenize(dst []Token, text string) []Token
}

// SeparatorTokenizer splits on any rune that is neither a letter, a digit,
// nor one of Keep. Keeping "." and "-" inside tokens preserves terms such
// as "Z39.50", the paper's running tokenization example; splitting on "."
// yields "Z39" and "50" instead.
type SeparatorTokenizer struct {
	Name string
	Keep string // runes allowed inside a token besides letters and digits
}

// ID implements Tokenizer.
func (t *SeparatorTokenizer) ID() string { return t.Name }

// Tokenize implements Tokenizer. Keep runes are only retained inside
// tokens, never at the edges, so "end." tokenizes to "end" even when "." is
// kept for "Z39.50". A token is one contiguous run of text, so each is a
// substring of text, never a copy; bytes that are not UTF-8 separate
// tokens. ASCII is classified through a table, and only bytes from 0x80
// up are decoded as runes.
func (t *SeparatorTokenizer) Tokenize(dst []Token, text string) []Token {
	class := asciiClass
	for i := range len(t.Keep) {
		if c := t.Keep[i]; c < utf8.RuneSelf {
			class[c] = keep
		}
	}
	pos, lo, hi := 0, -1, 0 // the next token's position; the run's first unkept byte (-1 for none yet) and the end of its last unkept rune
	for i := 0; i <= len(text); {
		c, size := sep, 1
		switch {
		case i == len(text): // the end of text closes the last run
		case text[i] < utf8.RuneSelf:
			c = class[text[i]]
		default:
			var r rune
			if r, size = utf8.DecodeRuneInString(text[i:]); size > 1 && strings.ContainsRune(t.Keep, r) {
				c = keep
			} else if size > 1 && (unicode.IsLetter(r) || unicode.IsDigit(r)) {
				c = word
			}
		}
		switch {
		case c == word:
			if lo < 0 {
				lo = i
			}
			// The ASCII letters and digits that follow, in one loop.
			for i += size; i < len(text) && text[i] < utf8.RuneSelf && class[text[i]] == word; i++ {
			}
			hi = i
			continue
		case c == sep && lo >= 0:
			dst = append(dst, Token{Text: text[lo:hi], Pos: pos})
			pos, lo = pos+1, -1
		}
		i += size
	}
	return dst
}

// A byte or rune either separates tokens, is kept inside them, or is a
// letter or digit. A kept letter is kept: it is trimmed off a token's
// edges like any kept rune.
const (
	sep uint8 = iota
	keep
	word
)

// asciiClass classifies ASCII for a tokenizer that keeps nothing.
var asciiClass = func() (class [utf8.RuneSelf]uint8) {
	for c := range class {
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
			class[c] = word
		}
	}
	return class
}()

var (
	tokMu  sync.RWMutex
	tokReg = map[string]Tokenizer{}
)

// RegisterTokenizer adds a tokenizer to the global registry under its ID.
// Registering a duplicate ID is a programming error and panics.
func RegisterTokenizer(t Tokenizer) {
	tokMu.Lock()
	defer tokMu.Unlock()
	id := strings.ToLower(t.ID())
	if _, dup := tokReg[id]; dup {
		panic(fmt.Sprintf("text: tokenizer %q registered twice", t.ID()))
	}
	tokReg[id] = t
}

// LookupTokenizer finds a registered tokenizer by ID, case-insensitively.
func LookupTokenizer(id string) (Tokenizer, bool) {
	tokMu.RLock()
	defer tokMu.RUnlock()
	t, ok := tokReg[strings.ToLower(id)]
	return t, ok
}

// TokenizerIDs lists the registered tokenizer IDs, sorted.
func TokenizerIDs() []string {
	tokMu.RLock()
	defer tokMu.RUnlock()
	ids := make([]string, 0, len(tokReg))
	for _, t := range tokReg {
		ids = append(ids, t.ID())
	}
	sort.Strings(ids)
	return ids
}

// The built-in tokenizers. Acme-1 mimics an engine that keeps "." and "-"
// inside tokens; Acme-2 splits on everything non-alphanumeric; Acme-3
// additionally keeps "/" (path-like tokens).
func init() {
	RegisterTokenizer(&SeparatorTokenizer{Name: "Acme-1", Keep: ".-"})
	RegisterTokenizer(&SeparatorTokenizer{Name: "Acme-2"})
	RegisterTokenizer(&SeparatorTokenizer{Name: "Acme-3", Keep: "./-"})
}
