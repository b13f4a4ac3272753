package core

import (
	"context"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/client"
	"starts/internal/lang"
	"starts/internal/meta"
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
