package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"starts/internal/attr"
	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// Broker exposes a metasearcher as a STARTS source connection, enabling
// broker hierarchies: a higher-level metasearcher can harvest and query
// this one exactly as it would any single source (the GlOSS companion
// paper [8] studies precisely such hierarchies, and Harvest brokers
// likewise feed other brokers). The broker's exported metadata advertises
// a full-featured profile — members that support less are handled by the
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
// every optional text field, and the common modifiers; its score range is
// unbounded because merged scores depend on the merge strategy.
func (b *Broker) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	if _, err := b.harvested(ctx); err != nil {
		return nil, err
	}
	m := &meta.SourceMeta{
		SourceID:              b.id,
		SourceName:            "broker over " + strings.Join(b.ms.SourceIDs(), ", "),
		QueryParts:            meta.PartsBoth,
		ScoreMin:              0,
		ScoreMax:              math.Inf(1),
		RankingAlgorithmID:    "broker-" + b.mergerName(),
		TurnOffStopWords:      true,
		Linkage:               "starts-broker://" + b.id + "/query",
		ContentSummaryLinkage: "starts-broker://" + b.id + "/summary",
		SampleDatabaseResults: "starts-broker://" + b.id + "/sample",
	}
	for _, fi := range attr.Basic1Fields() {
		if fi.Required || fi.Field == attr.FieldFreeFormText {
			continue
		}
		m.FieldsSupported = append(m.FieldsSupported, meta.FieldSupport{
			Set: attr.SetBasic1, Field: fi.Field,
		})
	}
	for _, mod := range []attr.Modifier{
		attr.ModLT, attr.ModLE, attr.ModEQ, attr.ModGE, attr.ModGT, attr.ModNE,
		attr.ModStem, attr.ModPhonetic, attr.ModRightTruncation, attr.ModLeftTruncation,
	} {
		m.ModifiersSupported = append(m.ModifiersSupported, meta.ModifierSupport{
			Set: attr.SetBasic1, Mod: mod,
		})
		fields := append([]attr.Field{attr.FieldTitle, attr.FieldAny}, attr.FieldAuthor, attr.FieldBodyOfText)
		if mod.IsComparison() && mod != attr.ModEQ {
			fields = []attr.Field{attr.FieldDateLastModified}
		}
		for _, f := range fields {
			m.Combinations = append(m.Combinations, meta.Combination{
				Field: meta.FieldSupport{Set: attr.SetBasic1, Field: f},
				Mod:   meta.ModifierSupport{Set: attr.SetBasic1, Mod: mod},
			})
		}
	}
	return m, nil
}

// harvested refreshes the members' harvests best-effort, as a search does,
// and returns one snapshot of them: a down member, or one past its
// DateExpires whose refresh fails, drops out of (or stays stale in) what
// the broker publishes instead of failing it for the whole region. It
// fails only when no member has a usable entry.
func (b *Broker) harvested(ctx context.Context) (roster, error) {
	errs := b.ms.harvestAll(ctx)
	fleet := b.ms.roster()
	for _, e := range fleet.entries {
		if e != nil {
			return fleet, nil
		}
	}
	if len(errs) > 0 {
		return roster{}, fmt.Errorf("core: no member of broker %s could be harvested: %w", b.id, joinSorted(errs))
	}
	return roster{}, fmt.Errorf("core: broker %s has no members", b.id)
}

func (b *Broker) mergerName() string {
	b.ms.mu.RLock()
	defer b.ms.mu.RUnlock()
	return b.ms.opts.Merger.Name()
}

// Summary implements client.Conn: the member summaries aggregated into
// one, with document frequencies summed per (field, term). The flag bits
// take the weakest common guarantees (stemmed if any member stems,
// case-insensitive if any member folds).
func (b *Broker) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	fleet, err := b.harvested(ctx)
	if err != nil {
		return nil, err
	}
	agg := &meta.ContentSummary{StopWordsIncluded: true, FieldsQualified: true, CaseSensitive: true}
	type key struct {
		field attr.Field
		term  string
	}
	totals := map[key]*meta.TermInfo{}
	var order []key
	for _, e := range fleet.entries {
		if e == nil {
			continue // never harvested: its member is down
		}
		sum := e.summary
		agg.NumDocs += sum.NumDocs
		if sum.Stemming {
			agg.Stemming = true
		}
		if !sum.CaseSensitive {
			agg.CaseSensitive = false
		}
		if !sum.StopWordsIncluded {
			agg.StopWordsIncluded = false
		}
		for _, g := range sum.Groups {
			f := g.Field
			if !sum.FieldsQualified {
				f = attr.FieldAny
			}
			for _, ti := range g.Terms {
				k := key{field: f, term: ti.Term}
				cur := totals[k]
				if cur == nil {
					cp := ti
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

// Query implements client.Conn: the query runs through the inner
// metasearcher and the merged answer is repackaged as a STARTS result,
// with every contributing member listed in the header.
func (b *Broker) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	ans, err := b.ms.Search(ctx, q)
	if err != nil {
		return nil, err
	}
	return b.repackage(q, ans), nil
}

// repackage renders a merged answer as a STARTS result, with every
// contributing member listed in the header.
func (b *Broker) repackage(q *query.Query, ans *Answer) *result.Results {
	res := &result.Results{Sources: []string{b.id}}
	res.Sources = append(res.Sources, ans.Contacted...)
	// The broker's "actual query" is the original: member deviations were
	// already compensated by translation and merging.
	res.ActualFilter = q.Filter
	res.ActualRanking = q.Ranking
	res.Documents = ans.Documents
	return res
}

// QueryStream implements client.StreamConn: the query runs through the
// inner metasearcher's streaming search, each rank-stable slice of the
// merged answer reaching sink as a document frame the moment the
// incremental merge proves it final — including the terminal remainder
// — followed by one terminal frame carrying the complete repackaged
// result, exactly what Query would have returned. A sink error stops
// delivery; the search still completes and the final result is
// returned alongside the sink's error.
func (b *Broker) QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	var sinkErr error
	ans, err := b.ms.SearchStream(ctx, q, func(ev StreamEvent) error {
		if len(ev.Docs) == 0 {
			return nil // per-source events that stabilized nothing
		}
		if err := sink(result.StreamItem{Rank: ev.Rank, Docs: ev.Docs}); err != nil {
			sinkErr = err
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := b.repackage(q, ans)
	if sinkErr != nil {
		return res, sinkErr
	}
	if err := sink(result.StreamItem{Final: res}); err != nil {
		return res, err
	}
	return res, nil
}
