package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"starts/internal/attr"
	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
	"starts/internal/text"
)

// Broker exposes a metasearcher as a STARTS source connection, enabling
// broker hierarchies: a higher-level metasearcher can harvest and query
// this one exactly as it would any single source (the GlOSS companion
// paper [8] studies precisely such hierarchies, and Harvest brokers
// likewise feed other brokers). The broker's exported capabilities are the
// union of the members' — a member that supports less is handled by the
// inner metasearcher's own translation — and its content summary is the
// aggregation of the members' summaries.
type Broker struct {
	id string
	ms *Metasearcher
}

// NewBroker wraps the metasearcher under the given source ID.
func (m *Metasearcher) NewBroker(id string) (*Broker, error) {
	if id == "" || strings.ContainsAny(id, " \t\n") {
		return nil, fmt.Errorf("core: invalid broker id %q", id)
	}
	return &Broker{id: id, ms: m}, nil
}

var _ client.Conn = (*Broker)(nil)

// SourceID implements client.Conn.
func (b *Broker) SourceID() string { return b.id }

// Metadata implements client.Conn: the broker accepts both query parts,
// and its fields, modifiers and pairings are the union of the harvested
// members': one is listed when at least one member evaluates it, and
// translation inside the broker serves the members that do not. Its score
// range is unbounded because merged scores depend on the merge strategy.
// It names no sample-database results: the broker has no engine to run
// the sample queries over (Sample).
func (b *Broker) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	// Harvested best effort, as a search harvests: a down member, or one
	// past its DateExpires whose refresh fails, drops out of (or stays
	// stale in) what the broker publishes instead of failing it for the
	// whole region.
	fleet, err := b.ms.harvest(ctx)
	if err != nil {
		return nil, err
	}
	some := func(says func(*meta.SourceMeta) bool) bool {
		return slices.ContainsFunc(fleet.entries, func(e *entry) bool { return e != nil && says(e.meta) })
	}
	m := &meta.SourceMeta{
		SourceID:              b.id,
		SourceName:            "broker over " + strings.Join(b.ms.SourceIDs(), ", "),
		QueryParts:            meta.PartsBoth,
		ScoreMin:              0,
		ScoreMax:              math.Inf(1),
		RankingAlgorithmID:    "broker-" + b.ms.opts.Merger.Name(),
		TurnOffStopWords:      true,
		Linkage:               "starts-broker://" + b.id + "/query",
		ContentSummaryLinkage: "starts-broker://" + b.id + "/summary",
	}
	m.FieldsSupported, m.ModifiersSupported, m.Combinations = meta.Basic1Profile(
		func(f attr.Field) bool { return some(func(md *meta.SourceMeta) bool { return md.SupportsField(f) }) },
		func(mod attr.Modifier) bool {
			return some(func(md *meta.SourceMeta) bool { return md.SupportsModifier(mod) })
		},
		func(f attr.Field, mod attr.Modifier) bool {
			return some(func(md *meta.SourceMeta) bool { return md.AllowsCombination(f, mod) })
		})
	return m, nil
}

// Summary implements client.Conn: the member summaries aggregated into
// one, with document frequencies summed per (field, term). The flag bits
// take the weakest common guarantees (stemmed if any member stems,
// case-insensitive if any member folds), and each member's terms enter
// that vocabulary through the folding and stemming the member lacks —
// never stemmed twice, for Porter is not idempotent.
func (b *Broker) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	fleet, err := b.ms.harvest(ctx)
	if err != nil {
		return nil, err
	}
	agg := &meta.ContentSummary{StopWordsIncluded: true, FieldsQualified: true, CaseSensitive: true}
	for _, e := range fleet.entries {
		if e != nil { // nil: never harvested, its member is down
			agg.NumDocs += e.summary.NumDocs
			agg.Stemming = agg.Stemming || e.summary.Stemming
			agg.CaseSensitive = agg.CaseSensitive && e.summary.CaseSensitive
			agg.StopWordsIncluded = agg.StopWordsIncluded && e.summary.StopWordsIncluded
		}
	}
	type key struct {
		field attr.Field
		term  string
	}
	totals := map[key]*meta.TermInfo{}
	var order []key
	for _, e := range fleet.entries {
		if e == nil {
			continue
		}
		sum := e.summary
		fold, stem := sum.CaseSensitive && !agg.CaseSensitive, agg.Stemming && !sum.Stemming
		for _, g := range sum.Groups {
			f := g.Field
			if !sum.FieldsQualified {
				f = attr.FieldAny
			}
			for _, ti := range g.Terms {
				k := key{field: f, term: text.Normalize(ti.Term, fold, stem)}
				cur := totals[k]
				if cur == nil {
					cp := ti
					cp.Term = k.term
					totals[k] = &cp
					order = append(order, k)
					continue
				}
				cur.Postings += ti.Postings
				cur.DocFreq += ti.DocFreq
			}
		}
	}
	byField := map[attr.Field]*meta.SummaryGroup{}
	var fields []attr.Field
	for _, k := range order {
		g := byField[k.field]
		if g == nil {
			g = &meta.SummaryGroup{Field: k.field}
			byField[k.field] = g
			fields = append(fields, k.field)
		}
		g.Terms = append(g.Terms, *totals[k])
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i] < fields[j] })
	for _, f := range fields {
		agg.Groups = append(agg.Groups, *byField[f])
	}
	agg.SortTerms()
	return agg, nil
}

// Sample implements client.Conn: a broker has no engine of its own to run
// the sample queries over the sample collection (§4.2), so it exports no
// sample-database results and says so.
func (b *Broker) Sample(context.Context) ([]*source.SampleEntry, error) {
	return nil, fmt.Errorf("core: broker %s exports no sample-database results", b.id)
}

// Query implements client.Conn: QueryStream without a sink.
func (b *Broker) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	return b.QueryStream(ctx, q, nil)
}

// QueryStream implements client.StreamConn: the query runs through the
// inner metasearcher and the merged answer is repackaged as a STARTS
// result, with every contributing member listed in the header. With a
// sink, each rank-stable slice of the merged answer reaches it as a
// document frame the moment the incremental merge proves it final —
// including the terminal remainder — followed by one terminal frame
// carrying the complete result, exactly what Query returns. A sink error
// stops delivery; the search still completes and the final result is
// returned alongside the sink's error.
func (b *Broker) QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	var events StreamSink
	var sinkErr error
	if sink != nil {
		events = func(ev StreamEvent) error {
			if len(ev.Docs) > 0 { // else a per-source event that stabilized nothing
				sinkErr = sink(result.StreamItem{Rank: ev.Rank, Docs: ev.Docs})
			}
			return sinkErr
		}
	}
	ans, err := b.ms.searchStream(ctx, q, events)
	if err != nil {
		return nil, err
	}
	// The broker's "actual query" is the original: member deviations were
	// already compensated by translation and merging.
	res := &result.Results{Sources: append([]string{b.id}, ans.Contacted...),
		ActualFilter: q.Filter, ActualRanking: q.Ranking, Documents: ans.Documents}
	if sink != nil && sinkErr == nil {
		sinkErr = sink(result.StreamItem{Final: res})
	}
	return res, sinkErr
}
