package text

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// oracleTokenize is the tokenizer SeparatorTokenizer.Tokenize replaced:
// it ranges over text rune by rune and copies every token's runes into a
// builder. The substring tokenizer must match it token for token.
func oracleTokenize(t *SeparatorTokenizer, text string) []Token {
	var toks []Token
	var cur strings.Builder
	pos := 0
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		word := strings.Trim(cur.String(), t.Keep)
		cur.Reset()
		if word == "" {
			return
		}
		toks = append(toks, Token{Text: word, Pos: pos})
		pos++
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || strings.ContainsRune(t.Keep, r) {
			cur.WriteRune(r)
			continue
		}
		flush()
	}
	flush()
	return toks
}

// FuzzTokenizeMatchesOracle holds every registered tokenizer to the
// oracle: the same token texts at the same positions, whatever the input.
func FuzzTokenizeMatchesOracle(f *testing.F) {
	for _, s := range []string{
		"the Z39.50 standard", "The end.", "-.-", "a-.-b ./x/. --", "one, two; three",
		"análisis Ünïcode ٣ büsqueda_de.datos", "�", "a�b", "x\xffy", "\xc3", "z\xe2\x82",
		"", "...",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, id := range TokenizerIDs() {
			tok, _ := LookupTokenizer(id)
			st, ok := tok.(*SeparatorTokenizer)
			if !ok {
				continue
			}
			got, want := st.Tokenize(nil, s), oracleTokenize(st, s)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s.Tokenize(%q) = %q, oracle %q", id, s, got, want)
			}
		}
	})
}

// oracleStem is the Stem that Stem replaced: it stems a fresh copy of the
// lower-cased word and returns the result as a new string. Stem must
// return the same stem for every input.
func oracleStem(word string) string {
	w := []byte(strings.ToLower(word))
	if len(w) <= 2 {
		return string(w)
	}
	for _, c := range w {
		if c < 'a' || c > 'z' {
			return string(w)
		}
	}
	w = step5b(step5a(step4(step3(step2(step1c(step1b(step1a(w))))))))
	return string(w)
}

func FuzzStemMatchesOracle(f *testing.F) {
	for _, w := range []string{"databases", "running", "z39.50", "Relational", "generalizations", "sky", "ab", "", "ÉTATS", strings.Repeat("ization", 12)} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w string) {
		if got, want := Stem(w), oracleStem(w); got != want {
			t.Fatalf("Stem(%q) = %q, oracle %q", w, got, want)
		}
	})
}

// TestStemAllocations pins that stemming a lower-case word allocates
// nothing: the stem is a view of the word.
func TestStemAllocations(t *testing.T) {
	for _, w := range []string{"databases", "running", "z39.50"} {
		if n := testing.AllocsPerRun(100, func() { Stem(w) }); n != 0 {
			t.Errorf("Stem(%q) allocates %.0f times, want 0", w, n)
		}
	}
}
