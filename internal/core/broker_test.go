package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"starts/internal/attr"
	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/lang"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/source"
	"starts/internal/text"
	"starts/internal/translate"
)

// TestBrokerHierarchy builds a two-level metasearch hierarchy: a leaf
// broker over the three-source fleet, registered as one source of a
// top-level metasearcher alongside an extra direct source; queries flow
// through both levels.
func TestBrokerHierarchy(t *testing.T) {
	leaf, srcs := fleet(t)
	broker, err := leaf.NewBroker("campus-broker")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaf.NewBroker("bad id"); err == nil {
		t.Error("broker with whitespace id accepted")
	}

	top := New(Options{})
	top.Add(broker)
	top.Add(client.NewLocalConn(srcs["garden"], nil)) // also reachable directly

	ctx := context.Background()
	if err := top.Harvest(ctx); err != nil {
		t.Fatalf("harvesting through the broker: %v", err)
	}

	// The broker's aggregated summary covers all leaf members.
	_, sum, ok := top.Harvested("campus-broker")
	if !ok {
		t.Fatal("broker not harvested")
	}
	leafDocs := 0
	for _, id := range leaf.SourceIDs() {
		_, s, ok := leaf.Harvested(id)
		if !ok {
			t.Fatalf("leaf %s not harvested", id)
		}
		leafDocs += s.NumDocs
	}
	if sum.NumDocs != leafDocs {
		t.Errorf("broker summary NumDocs = %d, want %d", sum.NumDocs, leafDocs)
	}
	if df := sum.DocFreq(attr.FieldBodyOfText, lang.Tag{}, "databas"); df == 0 {
		t.Error("aggregated summary lost the database vocabulary")
	}

	// A database query through the top level flows into the broker and
	// out with leaf-attributed documents.
	q := rankingQuery(t, `list((body-of-text "databases") (body-of-text "metasearch"))`)
	ans, err := top.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Documents) == 0 {
		t.Fatal("hierarchy returned nothing")
	}
	contactedBroker := false
	for _, id := range ans.Contacted {
		if id == "campus-broker" {
			contactedBroker = true
		}
	}
	if !contactedBroker {
		t.Errorf("broker not contacted: %v", ans.Contacted)
	}
	// Documents keep their original (leaf) source attribution.
	foundLeafAttribution := false
	for _, d := range ans.Documents {
		for _, s := range d.Sources {
			if s == "cs" || s == "archive" {
				foundLeafAttribution = true
			}
		}
	}
	if !foundLeafAttribution {
		t.Error("leaf attribution lost through the hierarchy")
	}
}

// TestBrokerSummaryNormalisesMembers: the aggregate stems when any member
// stems and folds when any member folds, so every member's terms must be
// brought into that vocabulary. In fleet, cs stems and folds (5 documents
// hold "databases") and archive only folds (4); annals, added here, does
// neither (2 hold "Databases", 1 "databases"). A front GlOSS probe of
// "databases" stems to "databas", which must count all twelve.
func TestBrokerSummaryNormalisesMembers(t *testing.T) {
	leaf, _ := fleet(t)
	cfg := engine.NewBooleanConfig()
	cfg.Analyzer.CaseSensitive = true
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	annals, err := source.New("annals", eng)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{"Databases ledger", "Databases", "databases", "ledger"} {
		if err := annals.Add(&index.Document{Linkage: fmt.Sprintf("http://annals/%d", i), Title: "annal", Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	leaf.Add(client.NewLocalConn(annals, nil))
	broker, err := leaf.NewBroker("campus-broker")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := broker.Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Stemming || sum.CaseSensitive {
		t.Fatalf("aggregate flags: stemming %v, case-sensitive %v; want stemming, folding", sum.Stemming, sum.CaseSensitive)
	}
	if df := sum.DocFreq(attr.FieldBodyOfText, lang.Tag{}, "databas"); df != 12 {
		t.Errorf(`DocFreq(body-of-text, "databas") = %d, want 5 (cs) + 4 (archive) + 3 (annals)`, df)
	}
	for _, w := range []string{"databases", "Databases", "databa"} {
		if df := sum.DocFreq(attr.FieldBodyOfText, lang.Tag{}, w); df != 0 {
			t.Errorf("DocFreq(body-of-text, %q) = %d: a spelling outside the stemmed vocabulary", w, df)
		}
	}
	if df := sum.DocFreq(attr.FieldBodyOfText, lang.Tag{}, "ledger"); df != 2 {
		t.Errorf(`DocFreq(body-of-text, "ledger") = %d, want 2`, df)
	}
}

// TestBrokerSurvivesDownMember: one unreachable member degrades what the
// broker publishes, as it degrades the broker's queries, instead of
// failing its metadata and summary for the whole region.
func TestBrokerSurvivesDownMember(t *testing.T) {
	leaf, _ := fleet(t)
	leaf.Add(&brokenHarvestConn{failingConn{id: "down"}})
	broker, err := leaf.NewBroker("region")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := broker.Metadata(ctx); err != nil {
		t.Fatalf("metadata with one member down: %v", err)
	}
	sum, err := broker.Summary(ctx)
	if err != nil {
		t.Fatalf("summary with one member down: %v", err)
	}
	healthy := 0
	for _, id := range []string{"cs", "garden", "archive"} {
		_, s, ok := leaf.Harvested(id)
		if !ok {
			t.Fatalf("healthy member %s not harvested", id)
		}
		healthy += s.NumDocs
	}
	if sum.NumDocs != healthy {
		t.Errorf("summary NumDocs = %d, want %d (the healthy members)", sum.NumDocs, healthy)
	}

	// A broker none of whose members can be harvested still fails.
	dead := New(Options{})
	dead.Add(&brokenHarvestConn{failingConn{id: "d1"}})
	deadBroker, err := dead.NewBroker("dead")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deadBroker.Metadata(ctx); err == nil {
		t.Error("metadata of an all-down broker should fail")
	}
	if _, err := deadBroker.Summary(ctx); err == nil {
		t.Error("summary of an all-down broker should fail")
	}
}

func TestBrokerMetadata(t *testing.T) {
	leaf, _ := fleet(t)
	broker, err := leaf.NewBroker("B")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	md, err := broker.Metadata(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if md.SourceID != "B" || !md.QueryParts.SupportsFilter() || !md.QueryParts.SupportsRanking() {
		t.Errorf("metadata = %+v", md)
	}
	if !md.SupportsField(attr.FieldAuthor) || !md.SupportsModifier(attr.ModStem) {
		t.Error("broker profile too weak")
	}
	if !md.AllowsCombination(attr.FieldDateLastModified, attr.ModGT) {
		t.Error("date comparisons missing from broker combinations")
	}
	if md.AllowsCombination(attr.FieldTitle, attr.ModGT) {
		t.Error("title > combination should be absent")
	}
	if !strings.HasPrefix(md.RankingAlgorithmID, "broker-") {
		t.Errorf("ranking algorithm id = %s", md.RankingAlgorithmID)
	}
	// The metadata round trips through SOIF (required attributes intact).
	data, err := md.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := meta.ParseMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.SourceID != "B" {
		t.Errorf("round trip id = %s", back.SourceID)
	}

	if _, err := broker.Sample(ctx); err == nil {
		t.Error("broker samples should be explicitly unsupported")
	}
}

// configSource indexes docs into a source named id whose engine has cfg.
func configSource(t *testing.T, id string, cfg engine.Config, docs ...*index.Document) *source.Source {
	t.Helper()
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := source.New(id, eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddAll(docs); err != nil {
		t.Fatal(err)
	}
	return s
}

// randomConfig draws an engine profile: random subsets of the optional
// Basic-1 fields (some spelled in capitals), of the Basic-1 modifiers and
// of illegal pairings, with or without a thesaurus, a native handler and
// a case-preserving analyzer.
func randomConfig(rng *rand.Rand) engine.Config {
	cfg := engine.NewVectorConfig()
	cfg.Fields, cfg.Mods, cfg.IllegalCombos = nil, nil, map[attr.Field][]attr.Modifier{}
	fields, mods := attr.Basic1Fields(), attr.Basic1Modifiers()
	for _, fi := range fields {
		switch rng.Intn(4) {
		case 0:
			cfg.Fields = append(cfg.Fields, fi.Field)
		case 1:
			cfg.Fields = append(cfg.Fields, attr.Field(strings.ToUpper(string(fi.Field))))
		}
	}
	for _, mi := range mods {
		if rng.Intn(2) == 0 {
			cfg.Mods = append(cfg.Mods, mi.Modifier)
		}
	}
	for range rng.Intn(8) {
		f := fields[rng.Intn(len(fields))].Field
		cfg.IllegalCombos[f] = append(cfg.IllegalCombos[f], mods[rng.Intn(len(mods))].Modifier)
	}
	if rng.Intn(2) == 0 {
		cfg.Thesaurus = text.DefaultThesaurus()
	}
	if rng.Intn(3) == 0 {
		cfg.Native = engine.SubstringNative
	}
	if rng.Intn(3) == 0 {
		tok, _ := text.LookupTokenizer("Acme-2")
		cfg.Analyzer = &text.Analyzer{Tokenizer: tok, Stop: text.EnglishStopWords(), CaseSensitive: true}
	}
	return cfg
}

// TestBrokerProfileIsMembersUnion: over random fleets, the broker answers
// every field (the Basic-1 table, an unknown one, other spellings), every
// Basic-1 modifier and every pairing of the two as "some harvested member
// says yes"; a member that was never harvested says nothing.
func TestBrokerProfileIsMembersUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	fields := []attr.Field{"made-up-field", "Author", "TITLE", "date/time-last-modified", "Date/Time-Last-Modified", "Free-Form-Text"}
	for _, fi := range attr.Basic1Fields() {
		fields = append(fields, fi.Field)
	}
	ctx := context.Background()
	for trial := range 40 {
		ms := New(Options{})
		var ids []string
		for i := range 1 + rng.Intn(4) {
			id := fmt.Sprintf("m%d", i)
			ms.Add(client.NewLocalConn(configSource(t, id, randomConfig(rng),
				&index.Document{Linkage: "http://" + id + "/a", Title: id, Body: "distributed databases"}), nil))
			ids = append(ids, id)
		}
		if rng.Intn(4) == 0 {
			ms.Add(&brokenHarvestConn{failingConn{id: "down"}})
		}
		broker, err := ms.NewBroker("union")
		if err != nil {
			t.Fatal(err)
		}
		md, err := broker.Metadata(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var members []*meta.SourceMeta
		for _, id := range ids {
			m, _, ok := ms.Harvested(id)
			if !ok {
				t.Fatalf("trial %d: %s not harvested", trial, id)
			}
			members = append(members, m)
		}
		some := func(says func(*meta.SourceMeta) bool) bool { return slices.ContainsFunc(members, says) }
		for _, mi := range attr.Basic1Modifiers() {
			mod := mi.Modifier
			if got, want := md.SupportsModifier(mod), some(func(m *meta.SourceMeta) bool { return m.SupportsModifier(mod) }); got != want {
				t.Errorf("trial %d: modifier %q supported %v, members %v", trial, mod, got, want)
			}
		}
		for _, f := range fields {
			if got, want := md.SupportsField(f), some(func(m *meta.SourceMeta) bool { return m.SupportsField(f) }); got != want {
				t.Errorf("trial %d: field %q supported %v, members %v", trial, f, got, want)
			}
			for _, mi := range attr.Basic1Modifiers() {
				mod := mi.Modifier
				if got, want := md.AllowsCombination(f, mod), some(func(m *meta.SourceMeta) bool { return m.AllowsCombination(f, mod) }); got != want {
					t.Errorf("trial %d: (%s %s) allowed %v, members %v", trial, f, mod, got, want)
				}
			}
		}
		ms.Close()
	}
}

// TestBrokerWithoutDateComparisons: no member of the region compares
// dates, so the broker does not advertise (date-last-modified >), and a
// front metasearcher strips the > off a query's date term itself.
func TestBrokerWithoutDateComparisons(t *testing.T) {
	eqOnly := engine.NewVectorConfig()
	eqOnly.Mods = []attr.Modifier{attr.ModEQ, attr.ModStem}
	noDates := engine.NewBooleanConfig()
	noDates.IllegalCombos = map[attr.Field][]attr.Modifier{
		attr.FieldDateLastModified: {attr.ModLT, attr.ModLE, attr.ModGE, attr.ModGT, attr.ModNE},
	}
	date := time.Date(1996, 1, 1, 0, 0, 0, 0, time.UTC)
	region := New(Options{Timeout: 5 * time.Second})
	defer region.Close()
	region.Add(client.NewLocalConn(configSource(t, "eq-only", eqOnly,
		&index.Document{Linkage: "http://eq/a", Title: "Databases", Body: "distributed databases", Date: date}), nil))
	region.Add(client.NewLocalConn(configSource(t, "no-dates", noDates,
		&index.Document{Linkage: "http://nd/a", Title: "Databases", Body: "databases archive", Date: date}), nil))
	broker, err := region.NewBroker("region")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	md, err := broker.Metadata(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if md.AllowsCombination(attr.FieldDateLastModified, attr.ModGT) {
		t.Error("broker advertises (date-last-modified >) that no member evaluates")
	}
	if !md.AllowsCombination(attr.FieldDateLastModified, attr.ModEQ) {
		t.Error("broker lost (date-last-modified =), which its members evaluate")
	}

	front := New(Options{Timeout: 5 * time.Second})
	defer front.Close()
	front.Add(broker)
	q := query.New()
	if q.Filter, err = query.ParseFilter(`((date-last-modified > "1995-01-01") and (body-of-text "databases"))`); err != nil {
		t.Fatal(err)
	}
	ans, err := front.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	out := ans.PerSource["region"]
	if out == nil || !slices.ContainsFunc(out.Report.StrippedMods, func(s translate.ModStrip) bool {
		return s.Mod == attr.ModGT && s.Term.EffectiveField() == attr.FieldDateLastModified
	}) {
		t.Fatalf("front did not strip the date term's >: %+v", out)
	}
}

// TestBrokerWithoutAuthor: no member of the region indexes author, so the
// broker does not advertise it: the front drops the author conjunct
// itself, and in verification mode enforces it on the region's answer.
func TestBrokerWithoutAuthor(t *testing.T) {
	bodyOnly, boolean := engine.NewVectorConfig(), engine.NewBooleanConfig()
	bodyOnly.Fields, boolean.Fields = []attr.Field{attr.FieldBodyOfText}, []attr.Field{attr.FieldBodyOfText}
	doc := func(url, author string) *index.Document {
		return &index.Document{Linkage: url, Title: "Metasearch paper", Authors: []string{author}, Body: "metasearch over distributed sources"}
	}
	region := New(Options{Timeout: 5 * time.Second})
	defer region.Close()
	region.Add(client.NewLocalConn(configSource(t, "vector", bodyOnly,
		doc("http://v/a", "Luis Gravano"), doc("http://v/b", "Hector Garcia-Molina")), nil))
	region.Add(client.NewLocalConn(configSource(t, "boolean", boolean,
		doc("http://b/a", "Luis Gravano"), doc("http://b/b", "Andreas Paepcke")), nil))
	broker, err := region.NewBroker("region")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if md, err := broker.Metadata(ctx); err != nil || md.SupportsField(attr.FieldAuthor) {
		t.Fatalf("broker metadata advertises author (%v)", err)
	}

	front := New(Options{PostFilter: true, Timeout: 5 * time.Second})
	defer front.Close()
	front.Add(broker)
	q := query.New()
	if q.Filter, err = query.ParseFilter(`((author "Gravano") and (body-of-text "metasearch"))`); err != nil {
		t.Fatal(err)
	}
	ans, err := front.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if rep := ans.PerSource["region"].Report; len(rep.DroppedTerms) != 1 || rep.DroppedTerms[0].EffectiveField() != attr.FieldAuthor {
		t.Fatalf("front dropped %v, want the author term", rep.DroppedTerms)
	}
	var got []string
	for _, d := range ans.Documents {
		got = append(got, d.Linkage())
	}
	slices.Sort(got)
	if want := []string{"http://b/a", "http://v/a"}; !slices.Equal(got, want) {
		t.Errorf("verified answer %v, want Gravano's %v", got, want)
	}
}
