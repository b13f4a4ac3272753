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
	"strings"
	"time"

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
	return &Source{id: id, sources: []string{id}, name: id, eng: eng}, nil
}

// ID returns the source identifier.
func (s *Source) ID() string { return s.id }

// Engine returns the underlying engine.
func (s *Source) Engine() *engine.Engine { return s.eng }

// SetName sets the human-readable source name.
func (s *Source) SetName(name string) { s.name = name }

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
// engine's capability profile, sharing its modifier and combination
// lists, which no caller may change. Every required attribute of the
// paper's table is populated.
func (s *Source) Metadata() *meta.SourceMeta {
	cfg := s.eng.Config()
	m := &meta.SourceMeta{
		SourceID:              s.id,
		QueryParts:            cfg.QueryParts,
		RankingAlgorithmID:    cfg.Scorer.ID(),
		TurnOffStopWords:      cfg.TurnOffStopWords,
		SourceName:            s.name,
		Linkage:               "starts://" + s.id + "/query",
		ContentSummaryLinkage: "starts://" + s.id + "/summary",
		SampleDatabaseResults: "starts://" + s.id + "/sample",
		SourceLanguages:       s.Languages,
		Abstract:              s.Abstract,
		DateChanged:           s.Changed,
		DateExpires:           s.Expires,
		StopWords:             cfg.Analyzer.Stop.Words(),
	}
	m.ScoreMin, m.ScoreMax = cfg.Scorer.Range()
	// The engine's capability lists, each supported field carrying the
	// collection's languages.
	caps := s.eng.Capabilities()
	for _, fs := range caps.FieldsSupported {
		fs.Languages = s.Languages
		m.FieldsSupported = append(m.FieldsSupported, fs)
	}
	m.ModifiersSupported, m.Combinations = caps.ModifiersSupported, caps.Combinations
	tags := s.Languages
	if len(tags) == 0 {
		tags = []lang.Tag{lang.EnglishUS}
	}
	for _, t := range tags {
		m.Tokenizers = append(m.Tokenizers, meta.TokenizerUse{ID: cfg.Analyzer.Tokenizer.ID(), Tag: t})
	}
	return m
}

// ContentSummary returns the source's content summary: its index's
// (index.Index.Summary), one object shared by every caller, which none may
// change. Its flag bits are those of the engine's analyzer, which built the
// index: a stemming engine can only export stemmed words. An index never
// changes after it is built; a source given more documents gets a new
// index, and with it a new summary.
func (s *Source) ContentSummary() *meta.ContentSummary { return s.eng.Index().Summary() }

// SampleResults evaluates the canonical sample queries over the canonical
// sample collection using this source's engine configuration, producing
// the calibration data the SampleDatabaseResults metadata attribute points
// at. Metasearchers treat the source as a black box and study how its
// (secret) ranker scores the known collection.
func (s *Source) SampleResults() ([]*SampleEntry, error) {
	probe, err := engine.NewWithDocs(s.eng.Config(), SampleCollection(), 1)
	if err != nil {
		return nil, fmt.Errorf("source %s: indexing sample collection: %w", s.id, err)
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

// AppendSample appends sample entries to dst as the stream ParseSample
// reads: each entry's @SQuery object, then its @SQResults run. It fails,
// returning nil, when an entry cannot be encoded.
func AppendSample(dst []byte, entries []*SampleEntry) ([]byte, error) {
	for _, e := range entries {
		q, err := e.Query.Marshal()
		if err != nil {
			return nil, err
		}
		if dst, err = e.Results.AppendSOIF(append(dst, q...)); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
