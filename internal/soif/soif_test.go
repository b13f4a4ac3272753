package soif

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeBasic(t *testing.T) {
	o := New("SQuery")
	o.Add("Version", "STARTS 1.0")
	o.Add("MaxNumberDocuments", "10")
	got := o.String()
	want := "@SQuery{\nVersion{10}: STARTS 1.0\nMaxNumberDocuments{2}: 10\n}\n\n"
	if got != want {
		t.Errorf("Encode:\n got %q\nwant %q", got, want)
	}
}

func TestRoundTripSimple(t *testing.T) {
	o := New("SMetaAttributes")
	o.Add("SourceID", "Source-1")
	o.Add("ScoreRange", "0.0 1.0")
	o.Add("Abstract", "multi\nline\nvalue with } and { and @")
	o.Add("Abstract", "repeated attribute")
	data, err := Marshal(o)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(o, back) {
		t.Errorf("round trip mismatch:\n got %#v\nwant %#v", back, o)
	}
}

func TestGetSetAll(t *testing.T) {
	o := New("T")
	o.Add("Field", "title")
	o.Add("Field", "author")
	o.Add("NumDocs", "892")

	if v, ok := o.Get("field"); !ok || v != "title" {
		t.Errorf("Get(field) = %q, %v; want title, true", v, ok)
	}
	if got := o.All("FIELD"); !reflect.DeepEqual(got, []string{"title", "author"}) {
		t.Errorf("All(FIELD) = %v", got)
	}
	if o.GetDefault("missing", "dflt") != "dflt" {
		t.Error("GetDefault for missing attribute")
	}
	o.Set("NumDocs", "900")
	if v, _ := o.Get("NumDocs"); v != "900" {
		t.Errorf("after Set, NumDocs = %q", v)
	}
	o.Set("Brand", "new")
	if v, _ := o.Get("Brand"); v != "new" {
		t.Errorf("Set on missing attribute: %q", v)
	}
	if o.Len() != 4 {
		t.Errorf("Len = %d, want 4", o.Len())
	}
	if o.Has("missing") {
		t.Error("Has(missing) = true")
	}
}

func TestDecodePaperStyle(t *testing.T) {
	// Layout as printed in the SIGMOD paper: values may themselves contain
	// newlines, accounted for by the byte length.
	in := "@SQResults{\n" +
		"Version{10}: STARTS 1.0\n" +
		"Sources{8}: Source-1\n" +
		"NumDocSOIFs{1}: 1\n" +
		"}\n\n" +
		"@SQRDocument{\n" +
		"RawScore{4}: 0.82\n" +
		"TermStats{89}: " + strings.Repeat("x", 89) + "\n" +
		"}\n"
	objs, err := UnmarshalAll([]byte(in))
	if err != nil {
		t.Fatalf("UnmarshalAll: %v", err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objects, want 2", len(objs))
	}
	if objs[0].Type != "SQResults" || objs[1].Type != "SQRDocument" {
		t.Errorf("types = %s, %s", objs[0].Type, objs[1].Type)
	}
	if v, _ := objs[1].Get("TermStats"); len(v) != 89 {
		t.Errorf("TermStats length = %d, want 89", len(v))
	}
}

func TestDecodeHarvestURLHeader(t *testing.T) {
	in := "@FILE{ http://example.com/doc.ps\nTitle{3}: abc\n}\n"
	o, err := Unmarshal([]byte(in))
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if v, _ := o.Get("URL"); v != "http://example.com/doc.ps" {
		t.Errorf("URL pseudo attribute = %q", v)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no at", "SQuery{\n}\n"},
		{"unterminated", "@SQuery{\nVersion{10}: STARTS 1.0\n"},
		{"bad length", "@SQuery{\nVersion{x}: STARTS 1.0\n}\n"},
		{"negative length", "@SQuery{\nVersion{-1}: \n}\n"},
		{"short value", "@SQuery{\nVersion{99}: STARTS 1.0\n}\n"},
		// A length no allocation could satisfy: an error, not a panic.
		{"exabyte value", "@SQuery{\nVersion{4000000000000000000}: STARTS 1.0\n}\n"},
		{"missing colon", "@SQuery{\nVersion{10}? STARTS 1.0\n}\n"},
		{"empty type", "@{\nVersion{10}: STARTS 1.0\n}\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Unmarshal([]byte(tc.in)); err == nil {
				t.Errorf("Unmarshal(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestUnmarshalRejectsTrailingObject(t *testing.T) {
	in := "@A{\n}\n@B{\n}\n"
	if _, err := Unmarshal([]byte(in)); err == nil {
		t.Error("Unmarshal accepted two objects")
	}
	objs, err := UnmarshalAll([]byte(in))
	if err != nil || len(objs) != 2 {
		t.Errorf("UnmarshalAll = %d objects, err %v", len(objs), err)
	}
}

func TestEncodeInvalidNames(t *testing.T) {
	for _, bad := range []string{"", "has{brace", "has}brace", "has:colon", "has\nnewline"} {
		o := New("T")
		o.Add(bad, "v")
		if _, err := Marshal(o); err == nil {
			t.Errorf("Marshal accepted attribute name %q", bad)
		}
	}
	for _, bad := range []string{"", "ty{pe", "ty}pe", "ty\npe"} {
		o := New(bad)
		if _, err := Marshal(o); err == nil {
			t.Errorf("Marshal accepted template type %q", bad)
		}
	}
}

func TestDecoderStream(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	const n = 50
	for i := 0; i < n; i++ {
		o := New("SQRDocument")
		o.Addf("RawScore", "%d.%02d", i, i)
		o.Add("Payload", strings.Repeat("p", i))
		if err := enc.Encode(o); err != nil {
			t.Fatalf("Encode #%d: %v", i, err)
		}
	}
	dec := NewDecoder(&buf)
	for i := 0; ; i++ {
		o, err := dec.Decode()
		if errors.Is(err, io.EOF) {
			if i != n {
				t.Fatalf("decoded %d objects, want %d", i, n)
			}
			break
		}
		if err != nil {
			t.Fatalf("Decode #%d: %v", i, err)
		}
		if v, _ := o.Get("Payload"); len(v) != i {
			t.Fatalf("object %d payload length %d", i, len(v))
		}
	}
}

// TestQuickRoundTrip property-tests that Marshal/Unmarshal is the identity
// over arbitrary attribute values, including values with embedded newlines,
// braces and non-ASCII bytes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []string) bool {
		o := New("SQuick")
		for i, v := range vals {
			o.Addf("A"+string(rune('a'+i%26)), "%s", v)
		}
		data, err := Marshal(o)
		if err != nil {
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(o, back)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	o := New("SQRDocument")
	o.Add("Version", "STARTS 1.0")
	o.Add("RawScore", "0.82")
	o.Add("Sources", "Source-1")
	o.Add("linkage", "http://www-db.stanford.edu/~ullman/pub/dood.ps")
	o.Add("title", "A Comparison Between Deductive and Object-Oriented Database Systems")
	o.Add("TermStats", "(body-of-text \"distributed\") 10 0.31 190\n(body-of-text \"databases\") 15 0.51 232")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	o := New("SQRDocument")
	o.Add("Version", "STARTS 1.0")
	o.Add("RawScore", "0.82")
	o.Add("title", "A Comparison Between Deductive and Object-Oriented Database Systems")
	data, err := Marshal(o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecoderNeverPanics feeds the SOIF decoder random byte soup.
func TestDecoderNeverPanics(t *testing.T) {
	alphabet := []byte("@{}:SQuery Version 10 \n\r\tabc-")
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		n := r.Intn(80)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("decoder panicked on %q: %v", b, p)
				}
			}()
			_, _ = UnmarshalAll(b)
			o := &Object{}
			_ = o.UnmarshalJSON(b)
		}()
	}
}
