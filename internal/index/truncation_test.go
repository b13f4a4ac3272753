package index

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"starts/internal/text"
)

// TestTruncationMatchesScan holds right and left truncation to a scan of
// the field's term map. Over a random collection, on a case-sensitive
// index and a folding one, for prefixes and suffixes of the index's own
// terms (their case flipped at random), expandWord gives exactly the terms
// that start or end with the normalized word, in order. The exhaustive
// oracle cannot catch a truncation bug: it expands words through
// expandWord too.
func TestTruncationMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	word := func() string {
		b := make([]byte, 1+r.Intn(6))
		for i := range b {
			b[i] = "abcAB"[r.Intn(5)]
		}
		return string(b)
	}
	docs := make([]*Document, 300)
	for i := range docs {
		body := make([]string, 1+r.Intn(12))
		for j := range body {
			body[j] = word()
		}
		docs[i] = &Document{Linkage: fmt.Sprintf("http://x/%d", i), Title: word(), Body: strings.Join(body, " ")}
	}
	flip := func(s string) string {
		b := []byte(s)
		for i, c := range b {
			if r.Intn(3) == 0 {
				b[i] = c ^ ('a' - 'A')
			}
		}
		return string(b)
	}
	tok, _ := text.LookupTokenizer("Acme-2")
	for _, a := range []*text.Analyzer{{Tokenizer: tok, CaseSensitive: true}, {Tokenizer: tok}} {
		ix := build(t, a, docs...)
		for _, f := range TextFields {
			fi := ix.fields[f]
			if fi == nil {
				continue
			}
			names := make([]string, 0, len(fi.terms))
			for name := range fi.terms {
				names = append(names, name)
			}
			slices.Sort(names)
			for i := 0; i < len(names); i += len(names)/200 + 1 {
				name := names[i]
				n := 1 + r.Intn(len(name))
				for _, c := range []struct {
					mod, word string
					match     func(s, affix string) bool
				}{
					{"right-truncation", flip(name[:n]), strings.HasPrefix},
					{"left-truncation", flip(name[len(name)-n:]), strings.HasSuffix},
				} {
					var want []string
					norm := a.NormalizeTerm(c.word)
					for term := range fi.terms {
						if c.match(term, norm) {
							want = append(want, term)
						}
					}
					slices.Sort(want)
					got := ix.expandWord(nil, fi, c.word, term(t, fmt.Sprintf("(%s %s %q)", f, c.mod, c.word)), LookupOptions{})
					if !slices.Equal(got, want) {
						t.Fatalf("case-sensitive %v, %s %s %q: expanded to %q, want %q", a.CaseSensitive, f, c.mod, c.word, got, want)
					}
				}
			}
		}
	}
}
