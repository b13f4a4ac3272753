package text

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestStemKnownVectors(t *testing.T) {
	// Classic vectors from Porter's paper plus the STARTS examples.
	cases := []struct{ in, want string }{
		{"databases", "databas"},
		{"database", "databas"}, // the paper's stem example: both match
		{"caresses", "caress"},
		{"ponies", "poni"},
		{"ties", "ti"},
		{"caress", "caress"},
		{"cats", "cat"},
		{"feed", "feed"},
		{"agreed", "agre"},
		{"plastered", "plaster"},
		{"bled", "bled"},
		{"motoring", "motor"},
		{"sing", "sing"},
		{"conflated", "conflat"},
		{"troubled", "troubl"},
		{"sized", "size"},
		{"hopping", "hop"},
		{"tanned", "tan"},
		{"falling", "fall"},
		{"hissing", "hiss"},
		{"fizzed", "fizz"},
		{"failing", "fail"},
		{"filing", "file"},
		{"happy", "happi"},
		{"sky", "sky"},
		{"relational", "relat"},
		{"conditional", "condit"},
		{"rational", "ration"},
		{"valenci", "valenc"},
		{"digitizer", "digit"},
		{"conformabli", "conform"},
		{"radicalli", "radic"},
		{"differentli", "differ"},
		{"vileli", "vile"},
		{"analogousli", "analog"},
		{"vietnamization", "vietnam"},
		{"predication", "predic"},
		{"operator", "oper"},
		{"feudalism", "feudal"},
		{"decisiveness", "decis"},
		{"hopefulness", "hope"},
		{"callousness", "callous"},
		{"formaliti", "formal"},
		{"sensitiviti", "sensit"},
		{"sensibiliti", "sensibl"},
		{"triplicate", "triplic"},
		{"formative", "form"},
		{"formalize", "formal"},
		{"electriciti", "electr"},
		{"electrical", "electr"},
		{"hopeful", "hope"},
		{"goodness", "good"},
		{"revival", "reviv"},
		{"allowance", "allow"},
		{"inference", "infer"},
		{"airliner", "airlin"},
		{"gyroscopic", "gyroscop"},
		{"adjustable", "adjust"},
		{"defensible", "defens"},
		{"irritant", "irrit"},
		{"replacement", "replac"},
		{"adjustment", "adjust"},
		{"dependent", "depend"},
		{"adoption", "adopt"},
		{"homologou", "homolog"},
		{"communism", "commun"},
		{"activate", "activ"},
		{"angulariti", "angular"},
		{"homologous", "homolog"},
		{"effective", "effect"},
		{"bowdlerize", "bowdler"},
		{"probate", "probat"},
		{"rate", "rate"},
		{"cease", "ceas"},
		{"controll", "control"},
		{"roll", "roll"},
		{"retrieval", "retriev"},
		{"systems", "system"},
		{"system", "system"},
		// Edge cases.
		{"", ""},
		{"a", "a"},
		{"is", "is"},
		{"Z39.50", "z39.50"}, // non-alphabetic passes through lower-cased
		{"DATABASES", "databas"},
	}
	for _, tc := range cases {
		if got := Stem(tc.in); got != tc.want {
			t.Errorf("Stem(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// Properties of Stem over arbitrary alphabetic input. (Porter stemming is
// deliberately NOT idempotent — "databases" -> "databas" -> "databa" — so
// the invariant that matters for search is that documents and queries go
// through the pipeline exactly once; these properties check what the
// algorithm does guarantee.)
func TestStemProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(14)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		w := string(b)
		s := Stem(w)
		if s == "" {
			return false // alphabetic input never stems to nothing
		}
		// Output stays lowercase alphabetic.
		for i := 0; i < len(s); i++ {
			if s[i] < 'a' || s[i] > 'z' {
				return false
			}
		}
		// A stem is never more than one byte longer than its input (the
		// only growth rule appends 'e' after removing >=2 bytes).
		if len(s) > len(w) {
			return false
		}
		// Regular plural and singular share a stem (for words long enough
		// to stem and not ending in letters that trigger other rules).
		return len(w) < 3 || Stem(w+"s") == Stem(w) || hasSuffixStr(w, "s") ||
			hasSuffixStr(w, "e") || hasSuffixStr(w, "i") || hasSuffixStr(w, "y") ||
			hasSuffixStr(w, "u")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func hasSuffixStr(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

func TestTokenizers(t *testing.T) {
	acme1, ok := LookupTokenizer("acme-1")
	if !ok {
		t.Fatal("Acme-1 not registered")
	}
	acme2, _ := LookupTokenizer("Acme-2")

	// The paper's tokenization question: is "Z39.50" one token or two?
	if got := acme1.Tokenize("the Z39.50 standard"); len(got) != 3 || got[1].Text != "Z39.50" {
		t.Errorf("Acme-1 tokens = %v", got)
	}
	if got := acme2.Tokenize("the Z39.50 standard"); len(got) != 4 || got[1].Text != "Z39" || got[2].Text != "50" {
		t.Errorf("Acme-2 tokens = %v", got)
	}

	// Keep runes are trimmed at token edges.
	if got := acme1.Tokenize("The end."); got[len(got)-1].Text != "end" {
		t.Errorf("trailing period kept: %v", got)
	}

	// Positions are sequential.
	toks := acme2.Tokenize("one, two; three")
	for i, tok := range toks {
		if tok.Pos != i {
			t.Errorf("token %d has pos %d", i, tok.Pos)
		}
	}

	// Unicode text tokenizes by letter class.
	if got := acme2.Tokenize("búsqueda de datos"); len(got) != 3 || got[0].Text != "búsqueda" {
		t.Errorf("Spanish tokens = %v", got)
	}
	if got := acme2.Tokenize(""); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
	if got := acme2.Tokenize("..."); len(got) != 0 {
		t.Errorf("punctuation-only input gave %v", got)
	}
}

func TestRegisterTokenizerDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	RegisterTokenizer(&SeparatorTokenizer{Name: "ACME-1"})
}

func TestTokenizerIDs(t *testing.T) {
	ids := TokenizerIDs()
	want := map[string]bool{"Acme-1": true, "Acme-2": true, "Acme-3": true}
	found := 0
	for _, id := range ids {
		if want[id] {
			found++
		}
	}
	if found != 3 {
		t.Errorf("TokenizerIDs = %v, missing built-ins", ids)
	}
}

func TestStopLists(t *testing.T) {
	en := EnglishStopWords()
	if !en.Contains("the") || !en.Contains("The") || !en.Contains("WHO") == false && en.Contains("databases") {
		t.Error("English stop list misbehaves")
	}
	if !en.Contains("who") {
		t.Error("'who' should be an English stop word (The Who example)")
	}
	if en.Contains("databases") {
		t.Error("'databases' must not be a stop word")
	}
	es := SpanishStopWords()
	if !es.Contains("de") || es.Contains("datos") {
		t.Error("Spanish stop list misbehaves")
	}
	var nilList *StopList
	if nilList.Contains("the") || nilList.Len() != 0 || nilList.Words() != nil {
		t.Error("nil stop list should behave as empty")
	}
	if got := NewStopList("x", []string{"b", "a"}).Words(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Words = %v", got)
	}
}

func TestSoundex(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Robert", "R163"},
		{"Rupert", "R163"},
		{"Ashcraft", "A261"},
		{"Ashcroft", "A261"},
		{"Tymczak", "T522"},
		{"Pfister", "P236"},
		{"Honeyman", "H555"},
		{"Smith", "S530"},
		{"Smyth", "S530"},
		{"Gravano", "G615"},
		{"", ""},
		{"123", ""},
		{"a", "A000"},
	}
	for _, tc := range cases {
		if got := Soundex(tc.in); got != tc.want {
			t.Errorf("Soundex(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if !SoundexEqual("Smith", "Smyth") {
		t.Error("Smith/Smyth should be soundex-equal")
	}
	if SoundexEqual("Smith", "Jones") {
		t.Error("Smith/Jones should differ")
	}
	if SoundexEqual("", "") {
		t.Error("empty words are not soundex-equal")
	}
}

func TestThesaurus(t *testing.T) {
	th := DefaultThesaurus()
	exp := th.Expand("database")
	if exp[0] != "database" || len(exp) != 3 {
		t.Errorf("Expand(database) = %v", exp)
	}
	// Symmetric: databank expands back to database.
	found := false
	for _, w := range th.Expand("databank") {
		if w == "database" {
			found = true
		}
	}
	if !found {
		t.Error("thesaurus expansion not symmetric")
	}
	if got := th.Expand("unrelatedword"); len(got) != 1 || got[0] != "unrelatedword" {
		t.Errorf("Expand(unknown) = %v", got)
	}
	var nilTh *Thesaurus
	if got := nilTh.Expand("x"); len(got) != 1 {
		t.Errorf("nil thesaurus Expand = %v", got)
	}
	// Overlapping groups merge.
	th2 := NewThesaurus([]string{"a", "b"}, []string{"b", "c"})
	if got := th2.Expand("b"); len(got) != 3 {
		t.Errorf("merged Expand(b) = %v", got)
	}
}

func TestAnalyzer(t *testing.T) {
	a := NewAnalyzer()
	toks := a.Analyze("The Distributed Databases of the future")
	// "The", "of", "the" eliminated; rest stemmed and folded.
	wantTexts := []string{"distribut", "databas", "futur"}
	if len(toks) != len(wantTexts) {
		t.Fatalf("Analyze = %v", toks)
	}
	for i, w := range wantTexts {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
	// Positions preserved across stop-word elimination: "Distributed" was
	// token 1 of the raw stream.
	if toks[0].Pos != 1 || toks[1].Pos != 2 || toks[2].Pos != 5 {
		t.Errorf("positions = %d,%d,%d", toks[0].Pos, toks[1].Pos, toks[2].Pos)
	}

	all := a.AnalyzeAll("The Who")
	if len(all) != 2 || all[0].Text != "the" || all[1].Text != "who" {
		t.Errorf("AnalyzeAll = %v", all)
	}
	if got := a.Analyze("The Who"); len(got) != 0 {
		t.Errorf("stop-word query should analyze to nothing, got %v", got)
	}

	if n := a.CountTokens("one two three"); n != 3 {
		t.Errorf("CountTokens = %d", n)
	}

	cs := &Analyzer{Tokenizer: a.Tokenizer, CaseSensitive: true}
	if got := cs.NormalizeTerm("Ullman"); got != "Ullman" {
		t.Errorf("case-sensitive NormalizeTerm = %q", got)
	}
	if got := a.NormalizeTerm("Databases"); got != "databas" {
		t.Errorf("NormalizeTerm = %q", got)
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"databases", "relational", "generalization", "distributed", "engineering"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

func BenchmarkAnalyze(b *testing.B) {
	a := NewAnalyzer()
	const doc = "The effectiveness of GlOSS for the text-database discovery problem " +
		"was evaluated over distributed heterogeneous document collections."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Analyze(doc)
	}
}

// A lower-case word — what an analyzer or a translator asks about almost
// always — is looked up as it is: strings.ToLower returns it unchanged.
func TestStopListContainsDoesNotAllocate(t *testing.T) {
	sl := EnglishStopWords()
	if n := testing.AllocsPerRun(100, func() { sl.Contains("the"); sl.Contains("databases"); sl.Contains("café") }); n != 0 {
		t.Errorf("Contains allocates %.0f objects for lower-case words", n)
	}
}
