package result

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"starts/internal/attr"
	"starts/internal/query"
	"starts/internal/soif"
)

// The document decoder and encoder as they were — a struct, a map of
// answer fields and a TermStats slice per document; the map printed
// linkage, title, then the rest sorted — kept as the oracle of the slab
// decoder (slabs) and the wire-order encoder (Document.appendSOIF).

type oracleDoc struct {
	RawScore  float64
	Sources   []string
	Fields    map[attr.Field]string
	TermStats []TermStat
	Size      int
	Count     int
}

func docFromSOIF(o *soif.Object) (*oracleDoc, error) {
	if !strings.EqualFold(o.Type, DocumentType) {
		return nil, fmt.Errorf("expected @%s, found @%s", DocumentType, o.Type)
	}
	d := &oracleDoc{Fields: make(map[attr.Field]string, max(0, len(o.Attrs)-6))}
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
			if d.TermStats, err = oracleParseTermStats(a.Value); err != nil {
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

// oracleParseTermStats is ParseTermStats as it was: every entry's term
// parsed on its own, into its own copy.
func oracleParseTermStats(v string) ([]TermStat, error) {
	var dst []TermStat
	for rest := strings.TrimSpace(v); rest != ""; {
		term, after, err := query.ScanTerm(rest)
		if err != nil {
			return nil, fmt.Errorf("TermStats term: %w", err)
		}
		s := TermStat{Term: &term}
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

func (d *oracleDoc) toSOIF() *soif.Object {
	o := &soif.Object{Type: DocumentType}
	o.Add("Version", query.Version)
	o.Add("RawScore", strconv.FormatFloat(d.RawScore, 'g', -1, 64))
	o.Add("Sources", strings.Join(d.Sources, " "))
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
		var lines []byte
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

// slabDocs decodes objs as one answer's documents, onto one answer's slabs.
func slabDocs(objs ...*soif.Object) ([]*Document, error) {
	s := newSlabs(len(objs))
	for i, o := range objs {
		if err := s.add(o); err != nil {
			return nil, fmt.Errorf("document %d: %w", i, err)
		}
	}
	return s.documents(), nil
}

// FuzzDocFromSOIFMatchesOracle holds the slab decoder to the map decoder
// on any one SOIF object: both fail or neither does; they agree on every
// number, attribution and term statistic, and field for field; the flat
// fields are in wire order, each once; and the two encoders print the
// two decodings to the same bytes.
func FuzzDocFromSOIFMatchesOracle(f *testing.F) {
	for _, d := range []*Document{source1Doc(), source2Doc()} {
		f.Add(marshalAll(d.toSOIF()))
	}
	// A document as another server might order it: fields in no order,
	// names in any case, a field twice, TermStats twice.
	f.Add([]byte("@SQRDocument{\nauthor{1}: A\nTermStats{9}: \"x\" 1 1 1\nTitle{2}: T1\n" +
		"Date/Time-Last-Modified{10}: 1996-08-01\nlinkage{8}: http://l\ntitle{2}: T2\n" +
		"TermStats{9}: \"y\" 2 2 2\nRawScore{3}: 0.5\n}\n"))
	for _, seed := range streamSeeds() {
		dec := soif.NewDecoder(bytes.NewReader(seed))
		for o, err := dec.Decode(); err == nil; o, err = dec.Decode() {
			f.Add(marshalAll(o))
		}
	}
	// Terms that repeat, and terms that differ from one another only in
	// case, modifiers, weight, quoting or a suffix of their spelling.
	for _, stats := range []string{
		"(body-of-text \"x\") 1 1 1\n(body-of-text \"x\") 2 2 2\n(Body-Of-Text \"x\") 3 3 3\n(body-of-text \"X\") 4 4 4",
		"(body-of-text stem \"x\") 1 1 1\n(body-of-text \"x\" 0.5) 2 2 2\n(body-of-text \"x\") 3 3 3\n(body-of-text stem \"x\") 4 4 4",
		"\"x\" 1 1 1\n\"x\\\"y\" 2 2 2\n\"x\"y\" 3 3 3\n``x'' 4 4 4\n[en-US \"x\"] 5 5 5\n\"x\" 6 6 6",
		"(title \"x\")1 1 1 (title \"x\")  2 2 2\n(title \"x\") (title \"x\") 3 3",
		"(date-last-modified > \"1996-08-01\") 1 1 1\n(date-last-modified >= \"1996-08-01\") 2 2 2\n(date-last-modified > \"1996-08-01\") 3 3 3",
	} {
		f.Add(marshalAll(soif.New(DocumentType).Add("RawScore", "1").Add("TermStats", stats)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := soif.NewDecoder(bytes.NewReader(data)).Decode()
		if err != nil {
			return
		}
		want, werr := docFromSOIF(o)
		// The document twice, as one answer: the second reads every term
		// through the spellings the first filed.
		docs, gerr := slabDocs(o, o)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("slab decoder error %v, oracle error %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !sameStats(docs[1].TermStats, want.TermStats) {
			t.Fatalf("second copy's TermStats %+v, oracle %+v", docs[1].TermStats, want.TermStats)
		}
		got := docs[0]
		if math.Float64bits(got.RawScore) != math.Float64bits(want.RawScore) ||
			got.Size != want.Size || got.Count != want.Count || !reflect.DeepEqual(got.Sources, want.Sources) {
			t.Fatalf("document %+v, oracle %+v", got, want)
		}
		if !sameStats(got.TermStats, want.TermStats) {
			t.Fatalf("TermStats %+v, oracle %+v", got.TermStats, want.TermStats)
		}
		if len(got.Fields) != len(want.Fields) {
			t.Fatalf("%d fields %v, oracle %d %v", len(got.Fields), got.Fields, len(want.Fields), want.Fields)
		}
		for f, v := range want.Fields {
			if got.Field(f) != v {
				t.Fatalf("field %q = %q, oracle %q", f, got.Field(f), v)
			}
		}
		for i := 1; i < len(got.Fields); i++ {
			if CompareFields(got.Fields[i-1].Field, got.Fields[i].Field) >= 0 {
				t.Fatalf("fields out of wire order: %v", got.Fields)
			}
		}
		g, gerr := got.appendSOIF(nil)
		w, werr := soif.Marshal(want.toSOIF())
		if (gerr == nil) != (werr == nil) || !bytes.Equal(g, w) {
			t.Fatalf("encodes to (%v)\n%s\noracle (%v)\n%s", gerr, g, werr, w)
		}
	})
}

// sameStats compares term statistics entry by entry, the terms by value
// and the weights bit for bit, so a NaN weight equals itself.
func sameStats(a, b []TermStat) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Weight) != math.Float64bits(y.Weight) || x.Freq != y.Freq || x.DocFreq != y.DocFreq ||
			!reflect.DeepEqual(*x.Term, *y.Term) {
			return false
		}
	}
	return true
}

// The answer and frame encoders as they were: each frame built as SOIF
// objects — Results.ToSOIF over Document.toSOIF — and written one object
// at a time (encodeAll), kept as the oracle of the appending encoders.

func (d *Document) toSOIF() *soif.Object {
	o := &soif.Object{Type: DocumentType, Attrs: make([]soif.Attribute, 0, 6+len(d.Fields))}
	var buf [256]byte
	o.Add("Version", query.Version)
	o.Add("RawScore", string(strconv.AppendFloat(buf[:0], d.RawScore, 'g', -1, 64)))
	o.Add("Sources", strings.Join(d.Sources, " "))
	for _, fv := range d.Fields {
		o.Add(string(fv.Field), fv.Value)
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

func oracleResults(r *Results) []*soif.Object {
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
	return append([]*soif.Object{head}, oracleDocs(r.Documents)...)
}

func oracleDocs(docs []*Document) []*soif.Object {
	objs := make([]*soif.Object, len(docs))
	for i, d := range docs {
		objs[i] = d.toSOIF()
	}
	return objs
}

// oracleFrame is a frame header of type typ, its attributes kv, and the
// objects that follow it.
func oracleFrame(typ string, kv []string, objs ...*soif.Object) []*soif.Object {
	h := soif.New(typ).Add("Version", query.Version)
	for i := 0; i < len(kv); i += 2 {
		h.Add(kv[i], kv[i+1])
	}
	return append([]*soif.Object{h}, objs...)
}

// FuzzFramesMatchOracle holds the appending encoders to the object
// encoders they replaced: whatever stream frame — error, document slice
// or terminal answer — the bytes decode to, appending it (and appending
// a terminal frame's answer on its own)
// gives exactly the bytes soif.MarshalAll gives for the objects the old
// encoder built. The seeds carry the paper's Examples 8 and 9.
func FuzzFramesMatchOracle(f *testing.F) {
	for _, seed := range streamSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		same := func(frame string, got []byte, gerr error, want []*soif.Object) {
			t.Helper()
			w, werr := soif.MarshalAll(want)
			if gerr != nil || werr != nil || !bytes.Equal(got, w) {
				t.Fatalf("%s appends (%v)\n%s\noracle (%v)\n%s", frame, gerr, got, werr, w)
			}
		}
		it, err := DecodeStreamItem(soif.NewDecoder(bytes.NewReader(data)))
		switch {
		case err != nil:
		case it.Err != nil:
			got := AppendStreamError(nil, errors.New(it.Err.Message))
			same("stream error", got, nil, oracleFrame(StreamItemType, []string{"Error", it.Err.Message}))
		case it.Final != nil:
			got, gerr := AppendStreamFinal(nil, it.Final)
			same("terminal frame", got, gerr, oracleFrame(StreamItemType, []string{"Final", "1"}, oracleResults(it.Final)...))
			got, gerr = it.Final.AppendSOIF(nil)
			same("answer", got, gerr, oracleResults(it.Final))
		default:
			got, gerr := AppendStreamDocs(nil, it.Rank, it.Docs)
			kv := []string{"Rank", strconv.Itoa(it.Rank), "NumDocSOIFs", strconv.Itoa(len(it.Docs))}
			same("document frame", got, gerr, oracleFrame(StreamItemType, kv, oracleDocs(it.Docs)...))
		}
	})
}
