// Package source implements STARTS sources and resources. A Source wraps
// a search engine with everything the protocol requires it to export:
// MBasic-1 metadata generated from the engine's capability profile, an
// automatically generated content summary, and the sample-database results
// used to calibrate black-box rankers. A Resource groups sources (Figure 1
// of the paper) and evaluates queries across several of its sources at
// once, eliminating duplicate documents — which an outside metasearcher
// could not do reliably on its own.
package source

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"starts/internal/attr"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/lang"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
)

// Source is one STARTS document source: a collection of text documents
// with an associated search engine.
type Source struct {
	id string
	// sources is the attribution every result and document of this source
	// carries: one slice, shared. Its capacity is its length, 1, so
	// whoever appends a second attribution (duplicate elimination in a
	// resource or a merge) gets a copy and never writes into this one.
	sources []string
	name    string
	eng     *engine.Engine
	baseURL string
	// Abstract is the optional hand-written description.
	Abstract string
	// Languages lists the collection's languages, exported in metadata.
	Languages []lang.Tag
	// Changed is the metadata modification date.
	Changed time.Time
	// Expires bounds the metadata validity for metasearcher caches.
	Expires time.Time
}

// New returns a source with the given identifier over an engine.
func New(id string, eng *engine.Engine) (*Source, error) {
	if id == "" || strings.ContainsAny(id, " \t\n") {
		return nil, fmt.Errorf("source: invalid source id %q (must be non-empty, no whitespace)", id)
	}
	if eng == nil {
		return nil, fmt.Errorf("source: source %q has no engine", id)
	}
	return &Source{id: id, sources: []string{id}, name: id, eng: eng, baseURL: "starts://" + id}, nil
}

// ID returns the source identifier.
func (s *Source) ID() string { return s.id }

// Engine returns the underlying engine.
func (s *Source) Engine() *engine.Engine { return s.eng }

// SetName sets the human-readable source name.
func (s *Source) SetName(name string) { s.name = name }

// SetBaseURL sets the URL prefix under which the source is served; the
// query, summary and sample URLs in the exported metadata derive from it.
func (s *Source) SetBaseURL(u string) { s.baseURL = strings.TrimRight(u, "/") }

// QueryURL is where the source accepts queries.
func (s *Source) QueryURL() string { return s.baseURL + "/query" }

// SummaryURL is where the content summary is served.
func (s *Source) SummaryURL() string { return s.baseURL + "/summary" }

// SampleURL is where the sample-database results are served.
func (s *Source) SampleURL() string { return s.baseURL + "/sample" }

// MetaURL is where the metadata-attributes object is served.
func (s *Source) MetaURL() string { return s.baseURL + "/metadata" }

// Add indexes a document into the source's collection.
func (s *Source) Add(d *index.Document) error { return s.eng.Add(d) }

// AddAll indexes a batch of documents.
func (s *Source) AddAll(docs []*index.Document) error {
	for _, d := range docs {
		if err := s.Add(d); err != nil {
			return err
		}
	}
	return nil
}

// Search evaluates a query at this source and stamps the source ID onto
// the result and each document.
func (s *Source) Search(q *query.Query) (*result.Results, error) {
	res, err := s.eng.Search(q)
	if err != nil {
		return nil, fmt.Errorf("source %s: %w", s.id, err)
	}
	res.Sources = s.sources
	for _, d := range res.Documents {
		d.Sources = s.sources
	}
	return res, nil
}

// Metadata generates the source's MBasic-1 metadata object from the
// engine's capability profile. Every required attribute of the paper's
// table is populated.
func (s *Source) Metadata() *meta.SourceMeta {
	cfg := s.eng.Config()
	m := &meta.SourceMeta{
		SourceID:              s.id,
		QueryParts:            cfg.QueryParts,
		RankingAlgorithmID:    cfg.Scorer.ID(),
		TurnOffStopWords:      cfg.TurnOffStopWords,
		SourceName:            s.name,
		Linkage:               s.QueryURL(),
		ContentSummaryLinkage: s.SummaryURL(),
		SampleDatabaseResults: s.SampleURL(),
		SourceLanguages:       s.Languages,
		Abstract:              s.Abstract,
		DateChanged:           s.Changed,
		DateExpires:           s.Expires,
		StopWords:             cfg.Analyzer.Stop.Words(),
	}
	m.ScoreMin, m.ScoreMax = cfg.Scorer.Range()

	// List every optional Basic-1 field the engine actually supports
	// (including free-form-text, which depends on a native handler rather
	// than the config's field list).
	for _, fi := range attr.Basic1Fields() {
		if fi.Required || !s.eng.SupportsField(fi.Field) {
			continue
		}
		m.FieldsSupported = append(m.FieldsSupported, meta.FieldSupport{
			Set: attr.SetBasic1, Field: fi.Field, Languages: s.Languages,
		})
	}
	for _, mi := range attr.Basic1Modifiers() {
		if s.eng.SupportsModifier(mi.Modifier) {
			m.ModifiersSupported = append(m.ModifiersSupported, meta.ModifierSupport{
				Set: attr.SetBasic1, Mod: mi.Modifier,
			})
		}
	}
	// Legal combinations across all recognized fields and supported
	// modifiers.
	fields := append([]attr.Field(nil), attr.RequiredFields()...)
	for _, fs := range m.FieldsSupported {
		fields = append(fields, fs.Field)
	}
	for _, f := range fields {
		for _, ms := range m.ModifiersSupported {
			if s.eng.AllowsCombination(f, ms.Mod) {
				m.Combinations = append(m.Combinations, meta.Combination{
					Field: meta.FieldSupport{Set: attr.SetBasic1, Field: attr.Normalize(f)},
					Mod:   meta.ModifierSupport{Set: attr.SetBasic1, Mod: ms.Mod},
				})
			}
		}
	}
	tags := s.Languages
	if len(tags) == 0 {
		tags = []lang.Tag{lang.EnglishUS}
	}
	for _, t := range tags {
		m.Tokenizers = append(m.Tokenizers, meta.TokenizerUse{ID: cfg.Analyzer.Tokenizer.ID(), Tag: t})
	}
	return m
}

// ContentSummary generates the source's content summary from its index:
// one group per field, terms with total postings and document frequencies.
// The flag bits reflect the engine's analyzer — a stemming engine can only
// export stemmed words.
func (s *Source) ContentSummary() *meta.ContentSummary {
	cfg := s.eng.Config()
	c := &meta.ContentSummary{
		Stemming:          cfg.Analyzer.Stemming,
		StopWordsIncluded: true, // the index keeps stop words
		CaseSensitive:     cfg.Analyzer.CaseSensitive,
		FieldsQualified:   true,
		NumDocs:           s.eng.Index().NumDocs(),
	}
	byField := map[attr.Field]*meta.SummaryGroup{}
	var order []attr.Field
	s.eng.Index().VocabTerms(func(f attr.Field, term string, postings, docFreq int) {
		g := byField[f]
		if g == nil {
			g = &meta.SummaryGroup{Field: f}
			byField[f] = g
			order = append(order, f)
		}
		g.Terms = append(g.Terms, meta.TermInfo{Term: term, Postings: postings, DocFreq: docFreq})
	})
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, f := range order {
		c.Groups = append(c.Groups, *byField[f])
	}
	c.SortTerms()
	return c
}

// SampleResults evaluates the canonical sample queries over the canonical
// sample collection using this source's engine configuration, producing
// the calibration data the SampleDatabaseResults metadata attribute points
// at. Metasearchers treat the source as a black box and study how its
// (secret) ranker scores the known collection.
func (s *Source) SampleResults() ([]*SampleEntry, error) {
	probe, err := engine.New(s.eng.Config())
	if err != nil {
		return nil, err
	}
	for _, d := range SampleCollection() {
		if err := probe.Add(d); err != nil {
			return nil, fmt.Errorf("source %s: indexing sample collection: %w", s.id, err)
		}
	}
	var out []*SampleEntry
	for _, q := range SampleQueries() {
		res, err := probe.Search(q)
		if err != nil {
			return nil, fmt.Errorf("source %s: sample query: %w", s.id, err)
		}
		res.Sources = []string{s.id}
		out = append(out, &SampleEntry{Query: q, Results: res})
	}
	return out, nil
}

// SampleEntry pairs one sample query with the source's results for it.
type SampleEntry struct {
	Query   *query.Query
	Results *result.Results
}

// MarshalSample encodes sample entries as alternating SQuery and SQResults
// object streams.
func MarshalSample(entries []*SampleEntry) ([]byte, error) {
	var b []byte
	for _, e := range entries {
		qb, err := e.Query.Marshal()
		if err != nil {
			return nil, err
		}
		rb, err := e.Results.Marshal()
		if err != nil {
			return nil, err
		}
		b = append(b, qb...)
		b = append(b, rb...)
	}
	return b, nil
}
