package text

import "strings"

// Stem reduces an English word to its stem using the Porter stemming
// algorithm (Porter, 1980), the classic algorithm behind the "stem"
// modifier of the STARTS query language: a query on "databases" with the
// stem modifier also matches "database".
//
// The input is lower-cased first; words shorter than three letters are
// returned unchanged, as in Porter's original definition. Stemming runs
// in a stack buffer: a stem that is a prefix of the lower-cased input,
// as most are, is returned as a view of it (of the input itself when it
// is lower-case), so a kept stem keeps that memory. The callers that
// keep stems hold the input anyway: the index keys its stem map on index
// terms, GlOSS its probe set on the query's words.
func Stem(word string) string {
	lower := strings.ToLower(word)
	if len(lower) <= 2 {
		return lower
	}
	for i := 0; i < len(lower); i++ {
		if c := lower[i]; c < 'a' || c > 'z' {
			return lower // non-alphabetic input passes through
		}
	}
	var buf [64]byte
	w := append(buf[:0], lower...)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	if len(w) <= len(lower) && string(w) == lower[:len(w)] {
		return lower[:len(w)]
	}
	return string(w)
}

// isCons reports whether w[i] acts as a consonant at position i. 'y' is a
// consonant when it begins the word or follows a vowel.
func isCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	}
	return true
}

// measure computes m, the number of vowel-consonant sequences in w
// ([C](VC)^m[V] in Porter's notation).
func measure(w []byte) int {
	n, i := 0, 0
	for i < len(w) && isCons(w, i) {
		i++
	}
	for i < len(w) {
		for i < len(w) && !isCons(w, i) {
			i++
		}
		if i == len(w) {
			break
		}
		n++
		for i < len(w) && isCons(w, i) {
			i++
		}
	}
	return n
}

func hasVowel(w []byte) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether w ends with a doubled consonant.
func endsDoubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y (the *o condition).
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	c := w[n-1]
	return c != 'w' && c != 'x' && c != 'y'
}

func hasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r if the stem before s has measure
// at least m. It reports whether the suffix matched (not whether it was
// replaced), which callers use to stop at the first matching rule.
func replaceSuffix(w []byte, s, r string, m int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	if stem := w[:len(w)-len(s)]; measure(stem) >= m {
		return append(stem, r...), true // r is never longer than s
	}
	return w, true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem []byte
	switch {
	case hasSuffix(w, "ed") && hasVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case hasSuffix(w, "ing") && hasVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleCons(stem) && !hasSuffix(stem, "l") && !hasSuffix(stem, "s") && !hasSuffix(stem, "z"):
		return stem[:len(stem)-1]
	case measure(stem) == 1 && endsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		return append(w[:len(w)-1], 'i')
	}
	return w
}

func step2(w []byte) []byte {
	rules := []struct{ s, r string }{
		{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
		{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
		{"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"},
		{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"},
		{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
		{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"},
		{"biliti", "ble"},
	}
	for _, rule := range rules {
		if w, ok := replaceSuffix(w, rule.s, rule.r, 1); ok {
			return w
		}
	}
	return w
}

func step3(w []byte) []byte {
	rules := []struct{ s, r string }{
		{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
		{"ical", "ic"}, {"ful", ""}, {"ness", ""},
	}
	for _, rule := range rules {
		if w, ok := replaceSuffix(w, rule.s, rule.r, 1); ok {
			return w
		}
	}
	return w
}

func step4(w []byte) []byte {
	suffixes := []string{
		"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
		"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
	}
	for _, s := range suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if s == "ion" && len(stem) > 0 {
			last := stem[len(stem)-1]
			if last != 's' && last != 't' {
				return w
			}
		}
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

func step5b(w []byte) []byte {
	if hasSuffix(w, "ll") && measure(w) > 1 {
		return w[:len(w)-1]
	}
	return w
}
