// Package result implements STARTS query results (Section 4.2): the
// SQResults header object that echoes the query a source actually
// processed, and the SQRDocument objects that carry, for every document,
// the unnormalized score, the originating sources, the answer fields, and
// the per-term statistics (term frequency, term weight, document
// frequency) that make rank merging possible without retrieving the
// documents themselves.
package result

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"starts/internal/attr"
	"starts/internal/query"
	"starts/internal/soif"
)

// SOIF template types of result objects.
const (
	ResultsType  = "SQResults"
	DocumentType = "SQRDocument"
)

// TermStat carries the statistics a source reports for one ranking-
// expression term in one document. These are the "raw material" a
// metasearcher needs to re-rank documents across sources with its own
// formula.
type TermStat struct {
	// Term is the ranking-expression term, as modified by the query
	// fields: e.g. (body-of-text "distributed").
	Term query.Term
	// Freq is the number of times the term appears in the document.
	Freq int
	// Weight is the term's weight in the document as assigned by the
	// source's engine (for example a normalized tf·idf weight).
	Weight float64
	// DocFreq is the number of documents in the source containing the
	// term.
	DocFreq int
}

// String renders the stat in the Example 8 line format.
func (s TermStat) String() string {
	var buf [128]byte
	return string(s.append(buf[:0]))
}

func (s TermStat) append(dst []byte) []byte {
	dst = strconv.AppendInt(append(s.Term.Append(dst), ' '), int64(s.Freq), 10)
	dst = strconv.AppendFloat(append(dst, ' '), s.Weight, 'g', -1, 64)
	return strconv.AppendInt(append(dst, ' '), int64(s.DocFreq), 10)
}

// Document is one query-result document.
type Document struct {
	// RawScore is the unnormalized score the source assigned for the
	// query's ranking expression.
	RawScore float64
	// Sources identifies the source(s) where the document appears; a
	// resource that eliminated duplicates lists every source that held a
	// copy.
	Sources []string
	// Fields holds the answer fields (title, author, ...). Linkage is
	// always present.
	Fields map[attr.Field]string
	// TermStats has one entry per ranking-expression term.
	TermStats []TermStat
	// Size is the document size in KBytes.
	Size int
	// Count is the number of tokens in the document, as determined by the
	// source's tokenizer.
	Count int
}

// Linkage returns the document URL.
func (d *Document) Linkage() string { return d.Fields[attr.FieldLinkage] }

// Title returns the document title, if it was an answer field.
func (d *Document) Title() string { return d.Fields[attr.FieldTitle] }

// Stat returns the term statistics for the given term text (matched
// case-insensitively against the stat's l-string), and whether they exist.
func (d *Document) Stat(text string) (TermStat, bool) {
	for _, s := range d.TermStats {
		if strings.EqualFold(s.Term.Value.Text, text) {
			return s, true
		}
	}
	return TermStat{}, false
}

// Results is a complete query result: the header plus the documents.
type Results struct {
	// Sources lists the sources that evaluated the query.
	Sources []string
	// ActualFilter and ActualRanking echo the query the source really
	// processed after dropping any parts it does not support; STARTS has
	// no error reporting, so this echo is how metasearchers learn that a
	// source ignored part of a query.
	ActualFilter  query.Expr
	ActualRanking query.Expr
	// Documents are the result documents, in source rank order.
	Documents []*Document
}

// ToSOIF encodes the result as an @SQResults header followed by one
// @SQRDocument per document, as in the paper's Example 8.
func (r *Results) ToSOIF() []*soif.Object {
	head := &soif.Object{Type: ResultsType, Attrs: make([]soif.Attribute, 0, 5)}
	head.Add("Version", query.Version)
	head.Add("Sources", strings.Join(r.Sources, " "))
	if r.ActualFilter != nil {
		head.Add("ActualFilterExpression", r.ActualFilter.String())
	}
	if r.ActualRanking != nil {
		head.Add("ActualRankingExpression", r.ActualRanking.String())
	}
	head.Add("NumDocSOIFs", strconv.Itoa(len(r.Documents)))
	objs := make([]*soif.Object, 0, 1+len(r.Documents))
	objs = append(objs, head)
	for _, d := range r.Documents {
		objs = append(objs, d.toSOIF())
	}
	return objs
}

// Marshal encodes the result to SOIF bytes.
func (r *Results) Marshal() ([]byte, error) {
	return soif.MarshalAll(r.ToSOIF())
}

// Clone returns a copy of r that is safe to hand to a consumer that
// mutates merge state: rank merging collapses duplicates by rewriting a
// document's Sources, RawScore and TermStats in place, so a Results
// value shared between concurrent searches (conn-level caching, dispatch
// batching) must be cloned per consumer. The Documents slice, each
// Document and its Sources slice are copied; Fields maps, TermStat
// entries and the header expressions are shared and must stay read-only.
func (r *Results) Clone() *Results {
	cp := *r
	cp.Documents = make([]*Document, len(r.Documents))
	for i, d := range r.Documents {
		dc := *d
		dc.Sources = append([]string(nil), d.Sources...)
		cp.Documents[i] = &dc
	}
	return &cp
}

func (d *Document) toSOIF() *soif.Object {
	o := &soif.Object{Type: DocumentType, Attrs: make([]soif.Attribute, 0, 6+len(d.Fields))}
	var buf [256]byte
	o.Add("Version", query.Version)
	o.Add("RawScore", string(strconv.AppendFloat(buf[:0], d.RawScore, 'g', -1, 64)))
	o.Add("Sources", strings.Join(d.Sources, " "))
	// Linkage and title first (the always-present and default answer
	// fields), then the rest alphabetically, for stable output.
	rest := len(d.Fields)
	for _, f := range [...]attr.Field{attr.FieldLinkage, attr.FieldTitle} {
		if v, ok := d.Fields[f]; ok {
			o.Add(string(f), v)
			rest--
		}
	}
	if rest > 0 {
		fields := make([]attr.Field, 0, rest)
		for f := range d.Fields {
			if f != attr.FieldLinkage && f != attr.FieldTitle {
				fields = append(fields, f)
			}
		}
		slices.Sort(fields)
		for _, f := range fields {
			o.Add(string(f), d.Fields[f])
		}
	}
	if len(d.TermStats) > 0 {
		lines := buf[:0]
		for i, s := range d.TermStats {
			if i > 0 {
				lines = append(lines, '\n')
			}
			lines = s.append(lines)
		}
		o.Add("TermStats", string(lines))
	}
	if d.Size > 0 {
		o.Add("DocSize", strconv.Itoa(d.Size))
	}
	if d.Count > 0 {
		o.Add("DocCount", strconv.Itoa(d.Count))
	}
	return o
}

// Parse decodes a complete query result (header plus documents) from SOIF
// bytes.
func Parse(data []byte) (*Results, error) {
	objs, err := soif.UnmarshalAll(data)
	if err != nil {
		return nil, err
	}
	return FromSOIF(objs)
}

// FromSOIF decodes a result from its SOIF objects. The first object must
// be the @SQResults header; NumDocSOIFs must match the number of document
// objects that follow.
func FromSOIF(objs []*soif.Object) (*Results, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("result: empty result stream")
	}
	head := objs[0]
	r, err := headerFromSOIF(head)
	if err != nil {
		return nil, err
	}
	if len(objs) > 1 {
		r.Documents = make([]*Document, 0, len(objs)-1)
	}
	for i, o := range objs[1:] {
		d, err := docFromSOIF(o)
		if err != nil {
			return nil, fmt.Errorf("result: document %d: %w", i, err)
		}
		r.Documents = append(r.Documents, d)
	}
	if head.Has("NumDocSOIFs") {
		n, err := count(head, "NumDocSOIFs")
		if err != nil {
			return nil, err
		}
		if n != len(r.Documents) {
			return nil, fmt.Errorf("result: header promises %d documents, stream carries %d", n, len(r.Documents))
		}
	}
	return r, nil
}

// headerFromSOIF decodes everything an @SQResults header says except how
// many documents follow it.
func headerFromSOIF(head *soif.Object) (*Results, error) {
	// A server that committed its HTTP status before failing reports the
	// failure as an @SQStreamItem error object in place of the results;
	// surface it as the typed error it is.
	if strings.EqualFold(head.Type, StreamItemType) {
		if msg, ok := head.Get("Error"); ok {
			return nil, &StreamError{Message: msg}
		}
	}
	if !strings.EqualFold(head.Type, ResultsType) {
		return nil, fmt.Errorf("result: expected @%s header, found @%s", ResultsType, head.Type)
	}
	r := &Results{}
	if v, ok := head.Get("Sources"); ok {
		r.Sources = strings.Fields(v)
	}
	var err error
	if v, ok := head.Get("ActualFilterExpression"); ok {
		if r.ActualFilter, err = query.ParseFilter(v); err != nil {
			return nil, fmt.Errorf("result: actual filter: %w", err)
		}
	}
	if v, ok := head.Get("ActualRankingExpression"); ok {
		if r.ActualRanking, err = query.ParseRanking(v); err != nil {
			return nil, fmt.Errorf("result: actual ranking: %w", err)
		}
	}
	return r, nil
}

func docFromSOIF(o *soif.Object) (*Document, error) {
	if !strings.EqualFold(o.Type, DocumentType) {
		return nil, fmt.Errorf("expected @%s, found @%s", DocumentType, o.Type)
	}
	// Everything but the six attributes named below is an answer field.
	d := &Document{Fields: make(map[attr.Field]string, max(0, len(o.Attrs)-6))}
	var err error
	for _, a := range o.Attrs {
		switch {
		case strings.EqualFold(a.Name, "Version"):
		case strings.EqualFold(a.Name, "RawScore"):
			if d.RawScore, err = strconv.ParseFloat(strings.TrimSpace(a.Value), 64); err != nil {
				return nil, fmt.Errorf("RawScore %q: %w", a.Value, err)
			}
		case strings.EqualFold(a.Name, "Sources"):
			d.Sources = strings.Fields(a.Value)
		case strings.EqualFold(a.Name, "TermStats"):
			if d.TermStats, err = ParseTermStats(a.Value); err != nil {
				return nil, err
			}
		case strings.EqualFold(a.Name, "DocSize"):
			if d.Size, err = strconv.Atoi(strings.TrimSpace(a.Value)); err != nil {
				return nil, fmt.Errorf("DocSize %q: %w", a.Value, err)
			}
		case strings.EqualFold(a.Name, "DocCount"):
			if d.Count, err = strconv.Atoi(strings.TrimSpace(a.Value)); err != nil {
				return nil, fmt.Errorf("DocCount %q: %w", a.Value, err)
			}
		default:
			d.Fields[attr.Normalize(attr.Field(a.Name))] = a.Value
		}
	}
	return d, nil
}

// maxStatsHint caps what ParseTermStats reserves on the strength of a
// newline count: a TermStat is 120 bytes, a newline one, and the value
// comes from a remote source.
const maxStatsHint = 32

// ParseTermStats decodes the TermStats attribute value: one or more
// whitespace-separated entries of the form
//
//	(body-of-text "distributed") 10 0.31 190
func ParseTermStats(v string) ([]TermStat, error) {
	rest := strings.TrimSpace(v)
	if rest == "" {
		return nil, nil
	}
	// The encoder puts one entry on a line; a line that is not an entry
	// reserves nothing past maxStatsHint (longer lists grow by append).
	stats := make([]TermStat, 0, min(1+strings.Count(rest, "\n"), maxStatsHint))
	for rest != "" {
		term, after, err := query.ScanTerm(rest)
		if err != nil {
			return nil, fmt.Errorf("TermStats term: %w", err)
		}
		var s TermStat
		s.Term = term
		var tok string
		if tok, after = nextToken(after); tok == "" {
			return nil, fmt.Errorf("TermStats entry for %s needs freq, weight and docfreq", term)
		}
		if s.Freq, err = strconv.Atoi(tok); err != nil {
			return nil, fmt.Errorf("TermStats freq %q: %w", tok, err)
		}
		if tok, after = nextToken(after); tok == "" {
			return nil, fmt.Errorf("TermStats entry for %s is missing its weight", term)
		}
		if s.Weight, err = strconv.ParseFloat(tok, 64); err != nil {
			return nil, fmt.Errorf("TermStats weight %q: %w", tok, err)
		}
		if tok, after = nextToken(after); tok == "" {
			return nil, fmt.Errorf("TermStats entry for %s is missing its docfreq", term)
		}
		if s.DocFreq, err = strconv.Atoi(tok); err != nil {
			return nil, fmt.Errorf("TermStats docfreq %q: %w", tok, err)
		}
		stats = append(stats, s)
		rest = strings.TrimLeftFunc(after, unicode.IsSpace)
	}
	return stats, nil
}

// nextToken splits one whitespace-delimited token off the front of s,
// leaving the remainder (including any interior whitespace) intact.
func nextToken(s string) (tok, rest string) {
	s = strings.TrimLeft(s, " \t\r\n")
	i := strings.IndexAny(s, " \t\r\n")
	if i < 0 {
		return s, ""
	}
	return s[:i], s[i:]
}
