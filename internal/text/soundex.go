package text

import "strings"

// Soundex computes the classic four-character soundex code of an English
// word, the phonetic matching behind the STARTS "phonetic" modifier: a
// query for (author phonetic "Smith") also matches "Smyth".
//
// Non-alphabetic runes are ignored; an input with no letters yields "".
func Soundex(word string) string {
	const codes = "01230120022455012623010202" // a-z
	var out []byte
	var prev byte
	for _, r := range strings.ToUpper(word) {
		if r < 'A' || r > 'Z' {
			// Vowels and separators break doubled-letter runs in standard
			// American soundex only for h/w; simple variant: reset on
			// non-letters.
			continue
		}
		code := codes[r-'A']
		if len(out) == 0 {
			out = append(out, byte(r))
			prev = code
			continue
		}
		if code != '0' && code != prev {
			out = append(out, code)
			if len(out) == 4 {
				return string(out)
			}
		}
		if r != 'H' && r != 'W' {
			prev = code
		}
	}
	if len(out) == 0 {
		return ""
	}
	for len(out) < 4 {
		out = append(out, '0')
	}
	return string(out)
}
