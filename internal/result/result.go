// Package result implements STARTS query results (Section 4.2): the
// SQResults header object that echoes the query a source actually
// processed, and the SQRDocument objects that carry, for every document,
// the unnormalized score, the originating sources, the answer fields, and
// the per-term statistics (term frequency, term weight, document
// frequency) that make rank merging possible without retrieving the
// documents themselves.
package result

import (
	"bytes"
	"cmp"
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
// formula. An answer's entries share their terms (an engine's point at
// its actual query's nodes, a decoded answer's at one term per spelling),
// so a Term is read-only, like the header's ActualFilter and ActualRanking.
type TermStat struct {
	// Term is the ranking-expression term, as modified by the query
	// fields: e.g. (body-of-text "distributed").
	Term *query.Term
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

// FieldValue is one answer field of a result document.
type FieldValue struct {
	Field attr.Field
	Value string
}

// Document is one query-result document. An answer's documents, their
// Fields and their TermStats each share one backing slab: read-only views.
type Document struct {
	// RawScore is the unnormalized score the source assigned for the
	// query's ranking expression.
	RawScore float64
	// Sources identifies the source(s) where the document appears; a
	// resource that eliminated duplicates lists every source that held a
	// copy.
	Sources []string
	// Fields holds the answer fields (title, author, ...), each once, in
	// CompareFields order. Linkage is always present.
	Fields []FieldValue
	// TermStats has one entry per ranking-expression term.
	TermStats []TermStat
	// Size is the document size in KBytes.
	Size int
	// Count is the number of tokens in the document, as determined by the
	// source's tokenizer.
	Count int
}

// Field returns the value of answer field f (normalized), if present.
func (d *Document) Field(f attr.Field) string {
	for _, fv := range d.Fields {
		if fv.Field == f {
			return fv.Value
		}
	}
	return ""
}

// Linkage returns the document URL.
func (d *Document) Linkage() string { return d.Field(attr.FieldLinkage) }

// Title returns the document title, if it was an answer field.
func (d *Document) Title() string { return d.Field(attr.FieldTitle) }

// CompareFields orders answer fields as a Document holds them and the wire
// prints them: linkage, title, then the rest by name.
func CompareFields(a, b attr.Field) int {
	// The rest are at index -1, which sorts last unsigned.
	if c := cmp.Compare(uint(slices.Index(wireFirst, a)), uint(slices.Index(wireFirst, b))); c != 0 {
		return c
	}
	return strings.Compare(string(a), string(b))
}

var wireFirst = []attr.Field{attr.FieldLinkage, attr.FieldTitle}

// Results is a complete query result: the header plus the documents.
type Results struct {
	// Sources lists the sources that evaluated the query.
	Sources []string
	// ActualFilter and ActualRanking echo the query the source really
	// processed after dropping any parts it does not support; STARTS has
	// no error reporting, so this echo is how metasearchers learn that a
	// source ignored part of a query. An in-process source's echo may
	// share the submitted query's nodes: it is read-only.
	ActualFilter  query.Expr
	ActualRanking query.Expr
	// Documents are the result documents, in source rank order.
	Documents []*Document
}

// AppendSOIF appends the result's SOIF text to dst: an @SQResults header
// followed by one @SQRDocument per document, as in the paper's Example 8.
// It fails, returning nil, only on an answer field name SOIF cannot carry.
func (r *Results) AppendSOIF(dst []byte) ([]byte, error) {
	var buf [256]byte // each value is printed here first; a longer one spills to the heap
	dst = soif.AppendAttr(begin(dst, ResultsType), "Sources", appendJoined(buf[:0], r.Sources))
	if r.ActualFilter != nil {
		dst = soif.AppendAttr(dst, "ActualFilterExpression", query.AppendExpr(buf[:0], r.ActualFilter))
	}
	if r.ActualRanking != nil {
		dst = soif.AppendAttr(dst, "ActualRankingExpression", query.AppendExpr(buf[:0], r.ActualRanking))
	}
	dst = soif.AppendAttr(dst, "NumDocSOIFs", strconv.AppendInt(buf[:0], int64(len(r.Documents)), 10))
	return appendDocs(soif.AppendEnd(dst), r.Documents)
}

// ToSOIF is the result as SOIF objects: AppendSOIF's text, decoded. It is
// empty when the result cannot be encoded (Marshal says why).
func (r *Results) ToSOIF() []*soif.Object {
	data, _ := r.AppendSOIF(nil)
	objs, _ := soif.UnmarshalAll(data)
	return objs
}

// Marshal encodes the result to SOIF bytes.
func (r *Results) Marshal() ([]byte, error) { return r.AppendSOIF(nil) }

// begin appends the opening of an object of type typ and its Version.
func begin(dst []byte, typ string) []byte {
	return soif.AppendAttr(soif.AppendType(dst, typ), "Version", query.Version)
}

// appendJoined appends vs to dst, separated by blanks.
func appendJoined(dst []byte, vs []string) []byte {
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, v...)
	}
	return dst
}

// Clone returns a copy of r that is safe to hand to a consumer that
// mutates merge state: rank merging collapses duplicates by rewriting a
// document's Sources, RawScore, TermStats, Size and Count in place, so a
// Results value shared between concurrent searches must be cloned per
// consumer. The documents are copied into one new slab, each with its own
// Sources; the Fields and TermStats slabs and the header expressions are
// shared and must stay read-only.
func (r *Results) Clone() *Results {
	cp := *r
	docs := make([]Document, len(r.Documents))
	cp.Documents = make([]*Document, len(r.Documents))
	for i, d := range r.Documents {
		docs[i] = *d
		docs[i].Sources = slices.Clone(d.Sources)
		cp.Documents[i] = &docs[i]
	}
	return &cp
}

// appendDocs appends one @SQRDocument per document to dst. The query
// fixes every document's fields and terms, so the first sizes the rest —
// up to 64 KiB: a field's value can be a whole text, and one long first
// document says nothing of the others.
func appendDocs(dst []byte, docs []*Document) ([]byte, error) {
	var err error
	for i, d := range docs {
		at := len(dst)
		if dst, err = d.appendSOIF(dst); err != nil {
			return nil, err
		}
		if i == 0 {
			dst = slices.Grow(dst, min((len(docs)-1)*(len(dst)-at)*5/4, 64<<10))
		}
	}
	return dst, nil
}

// appendSOIF appends the document's @SQRDocument object.
func (d *Document) appendSOIF(dst []byte) ([]byte, error) {
	var buf [256]byte
	dst = soif.AppendAttr(begin(dst, DocumentType), "RawScore", strconv.AppendFloat(buf[:0], d.RawScore, 'g', -1, 64))
	dst = soif.AppendAttr(dst, "Sources", appendJoined(buf[:0], d.Sources))
	for _, fv := range d.Fields {
		if err := soif.ValidName(string(fv.Field)); err != nil {
			return nil, err
		}
		dst = soif.AppendAttr(dst, string(fv.Field), fv.Value)
	}
	if len(d.TermStats) > 0 {
		lines := buf[:0]
		for i, s := range d.TermStats {
			if i > 0 {
				lines = append(lines, '\n')
			}
			lines = s.append(lines)
		}
		dst = soif.AppendAttr(dst, "TermStats", lines)
	}
	if d.Size > 0 {
		dst = soif.AppendAttr(dst, "DocSize", strconv.AppendInt(buf[:0], int64(d.Size), 10))
	}
	if d.Count > 0 {
		dst = soif.AppendAttr(dst, "DocCount", strconv.AppendInt(buf[:0], int64(d.Count), 10))
	}
	return soif.AppendEnd(dst), nil
}

// Parse decodes a complete query result from SOIF bytes: Decode's answer,
// and nothing after it.
func Parse(data []byte) (*Results, error) {
	dec := soif.NewDecoder(bytes.NewReader(data))
	defer dec.Release()
	return decodeAnswer(dec, nil)
}

// Decode reads the next query result from dec: an @SQResults header, which
// must carry NumDocSOIFs, and the documents it promises, decoded as one
// run. It leaves dec at the object after the last document.
func Decode(dec *soif.Decoder) (*Results, error) { return decodeResults(dec, nil) }

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

// slabs holds an answer's documents, answer fields and term statistics, a
// slice each. A document's Fields and TermStats are capped views of the
// slab as it stood when the document was added; the first document sizes
// the slabs, once, for every document the header promised, as the query
// fixes their fields and terms. A document whose Sources value repeats the
// last one parsed shares its list, which is clipped: merging appends to a
// document's list, and an append to a full slice copies it.
type slabs struct {
	docs    []Document
	fields  []FieldValue
	stats   []TermStat
	terms   spellings
	srcText string
	srcList []string
}

// newSlabs returns the slabs of an answer whose header promised n
// documents. The count is a claim: no slab reserves over maxDocsHint.
func newSlabs(n int) slabs { return slabs{docs: make([]Document, 0, min(n, maxDocsHint))} }

// documents points at every decoded document, now that their slab no
// longer moves.
func (s *slabs) documents() []*Document {
	docs := make([]*Document, len(s.docs))
	for i := range docs {
		docs[i] = &s.docs[i]
	}
	return docs
}

// add decodes one @SQRDocument onto the slabs.
func (s *slabs) add(o *soif.Object) error {
	if !strings.EqualFold(o.Type, DocumentType) {
		return fmt.Errorf("expected @%s, found @%s", DocumentType, o.Type)
	}
	if len(s.docs) == 0 {
		fields, stats := slabHints(o)
		n := cap(s.docs)
		s.fields = make([]FieldValue, 0, max(fields, min(n*fields, maxDocsHint)))
		s.stats = make([]TermStat, 0, max(stats, min(n*stats, maxDocsHint)))
	}
	var d Document
	f0, s0 := len(s.fields), len(s.stats)
	var err error
	for _, a := range o.Attrs {
		switch {
		case strings.EqualFold(a.Name, "Version"):
		case strings.EqualFold(a.Name, "RawScore"):
			if d.RawScore, err = strconv.ParseFloat(strings.TrimSpace(a.Value), 64); err != nil {
				return fmt.Errorf("RawScore %q: %w", a.Value, err)
			}
		case strings.EqualFold(a.Name, "Sources"):
			if s.srcList == nil || a.Value != s.srcText {
				s.srcText, s.srcList = a.Value, slices.Clip(strings.Fields(a.Value))
			}
			d.Sources = s.srcList
		case strings.EqualFold(a.Name, "TermStats"):
			// A repeated TermStats replaces the earlier one.
			if s.stats, err = appendTermStats(s.stats[:s0], a.Value, &s.terms); err != nil {
				return err
			}
		case strings.EqualFold(a.Name, "DocSize"):
			if d.Size, err = strconv.Atoi(strings.TrimSpace(a.Value)); err != nil {
				return fmt.Errorf("DocSize %q: %w", a.Value, err)
			}
		case strings.EqualFold(a.Name, "DocCount"):
			if d.Count, err = strconv.Atoi(strings.TrimSpace(a.Value)); err != nil {
				return fmt.Errorf("DocCount %q: %w", a.Value, err)
			}
		default:
			s.fields = append(s.fields, FieldValue{attr.Normalize(attr.Field(a.Name)), a.Value})
		}
	}
	// Wire order, a repeated field's last value (reversed, first in a stable sort).
	own := s.fields[f0:]
	slices.Reverse(own)
	slices.SortStableFunc(own, func(a, b FieldValue) int { return CompareFields(a.Field, b.Field) })
	n := len(slices.CompactFunc(own, func(a, b FieldValue) bool { return a.Field == b.Field }))
	d.Fields, s.fields = own[:n:n], s.fields[:f0+n]
	if n := len(s.stats); n > s0 {
		d.TermStats = s.stats[s0:n:n]
	}
	s.docs = append(s.docs, d)
	return nil
}

// slabHints counts a document's answer fields and its TermStats entries,
// as appendTermStats reserves for them: a line each, up to maxStatsHint.
func slabHints(o *soif.Object) (fields, stats int) {
	for _, a := range o.Attrs {
		switch {
		case strings.EqualFold(a.Name, "TermStats"):
			if v := strings.TrimSpace(a.Value); v != "" {
				stats = min(1+strings.Count(v, "\n"), maxStatsHint)
			}
		case !strings.EqualFold(a.Name, "Version") && !strings.EqualFold(a.Name, "RawScore") &&
			!strings.EqualFold(a.Name, "Sources") && !strings.EqualFold(a.Name, "DocSize") &&
			!strings.EqualFold(a.Name, "DocCount"):
			fields++
		}
	}
	return fields, stats
}

// maxStatsHint caps what ParseTermStats reserves on the strength of a
// newline count: a TermStat is 32 bytes, a new term's spelling 104, a
// newline one, and the value comes from a remote source.
const maxStatsHint = 32

// ParseTermStats decodes the TermStats attribute value: one or more
// whitespace-separated entries of the form
//
//	(body-of-text "distributed") 10 0.31 190
func ParseTermStats(v string) ([]TermStat, error) { return appendTermStats(nil, v, new(spellings)) }

// appendTermStats is ParseTermStats appending to dst, an answer's stat
// slab, its terms filed in terms; it returns nil on error.
func appendTermStats(dst []TermStat, v string, terms *spellings) ([]TermStat, error) {
	rest := strings.TrimSpace(v)
	if rest == "" {
		return dst, nil
	}
	// The encoder puts one entry on a line; a line that is not an entry
	// reserves nothing past maxStatsHint (longer lists grow by append).
	// The slab at least doubles, as slices.Grow would grow it, but a
	// -race build allocates slices.Grow twice.
	hint := min(1+strings.Count(rest, "\n"), maxStatsHint)
	if cap(dst)-len(dst) < hint {
		dst = append(make([]TermStat, 0, max(2*cap(dst), len(dst)+hint)), dst...)
	}
	for rest != "" {
		term, after, err := terms.scan(rest, hint)
		if err != nil {
			return nil, fmt.Errorf("TermStats term: %w", err)
		}
		s := TermStat{Term: term}
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
		dst = append(dst, s)
		rest = strings.TrimLeftFunc(after, unicode.IsSpace)
	}
	return dst, nil
}

// spellings are an answer's distinct TermStats terms and the text each was
// read from. ScanTerm reads no further than a term's last byte, so an entry
// that begins with a known spelling shares its term: at, which append keeps.
type spellings []spelled

// maxSpellings caps the table. An answer spells as many terms as its query
// has; a remote value may spell thousands, and past the cap each parses
// into a term of its own, so an entry is tried against at most this many.
const maxSpellings = 16

type spelled struct {
	text string
	at   *query.Term
	term query.Term
}

// scan reads the term at the front of src; the value holds at most hint.
func (sp *spellings) scan(src string, hint int) (*query.Term, string, error) {
	for _, e := range *sp {
		if strings.HasPrefix(src, e.text) {
			return e.at, src[len(e.text):], nil
		}
	}
	t, after, err := query.ScanTerm(src)
	if err != nil {
		return nil, "", err
	}
	if len(*sp) == maxSpellings {
		own := new(query.Term)
		*own = t
		return own, after, nil
	}
	if *sp == nil {
		*sp = make(spellings, 0, min(max(hint, 4), maxSpellings))
	}
	*sp = append(*sp, spelled{text: src[:len(src)-len(after)], term: t})
	e := &(*sp)[len(*sp)-1]
	e.at = &e.term
	return e.at, after, nil
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
