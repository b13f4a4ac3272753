package text

import "strings"

// Analyzer is the per-language indexing pipeline of a search engine:
// tokenize, optionally fold case, optionally drop stop words, optionally
// stem. Engines expose their analyzer configuration through source
// metadata (TokenizerIDList, StopWordList, and the content-summary flag
// bits), which is exactly the information a metasearcher needs to
// translate queries faithfully.
type Analyzer struct {
	Tokenizer     Tokenizer
	Stop          *StopList // nil disables stop-word elimination
	Stemming      bool
	CaseSensitive bool
}

// NewAnalyzer returns an analyzer with the common defaults: the Acme-2
// tokenizer, the default English stop list, stemming on, case folding on.
func NewAnalyzer() *Analyzer {
	tok, _ := LookupTokenizer("Acme-2")
	return &Analyzer{Tokenizer: tok, Stop: EnglishStopWords(), Stemming: true}
}

// NormalizeTerm applies case folding and stemming to a single word,
// exactly as Analyze would, without stop-word elimination. Query
// evaluation uses it to map query terms into index vocabulary.
func (a *Analyzer) NormalizeTerm(word string) string {
	return Normalize(word, !a.CaseSensitive, a.Stemming)
}

// Normalize brings one word into a vocabulary that folds case (fold) or
// stems (stem) — an index's, a content summary's, or an aggregate of
// summaries'. Stemming lower-cases too, so a stemmed word is folded
// whatever fold says. Porter is not idempotent ("databas" stems to
// "databa"): never stem a word that is already a stem.
func Normalize(word string, fold, stem bool) string {
	if stem {
		return Stem(word)
	}
	if fold {
		return strings.ToLower(word)
	}
	return word
}

// Analyze runs the full pipeline over text. Token positions count every
// token the tokenizer produced, including eliminated stop words, so
// proximity distances are preserved across stop-word removal.
func (a *Analyzer) Analyze(text string) []Token {
	toks := a.Tokenizer.Tokenize(nil, text)
	out := toks[:0]
	for _, t := range toks {
		if !a.Stop.Contains(t.Text) {
			out = append(out, Token{Text: a.NormalizeTerm(t.Text), Pos: t.Pos})
		}
	}
	return out
}
