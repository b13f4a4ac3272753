package result

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"starts/internal/attr"
	"starts/internal/query"
	"starts/internal/soif"
)

// The document decoder and encoder as they were — a struct, a map of
// answer fields and a TermStats slice per document; the map printed
// linkage, title, then the rest sorted — kept as the oracle of the slab
// decoder (slabs) and the wire-order encoder (Document.toSOIF).

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
	for _, seed := range append(batchSeeds(), streamSeeds()...) {
		dec := soif.NewDecoder(bytes.NewReader(seed))
		for o, err := dec.Decode(); err == nil; o, err = dec.Decode() {
			f.Add(marshalAll(o))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := soif.NewDecoder(bytes.NewReader(data)).Decode()
		if err != nil {
			return
		}
		want, werr := docFromSOIF(o)
		docs, gerr := decodeDocs(1, func() (*soif.Object, error) { return o, nil })
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("slab decoder error %v, oracle error %v", gerr, werr)
		}
		if gerr != nil {
			return
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
		g, gerr := soif.Marshal(got.toSOIF())
		w, werr := soif.Marshal(want.toSOIF())
		if (gerr == nil) != (werr == nil) || !bytes.Equal(g, w) {
			t.Fatalf("encodes to (%v)\n%s\noracle (%v)\n%s", gerr, g, werr, w)
		}
	})
}

// sameStats is reflect.DeepEqual with weights compared bit for bit, so a
// NaN weight equals itself.
func sameStats(a, b []TermStat) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Weight) != math.Float64bits(y.Weight) {
			return false
		}
		x.Weight, y.Weight = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}
