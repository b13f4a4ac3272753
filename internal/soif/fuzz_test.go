package soif

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// paperResult is the paper's Example 8 answer as this package encodes it:
// the @SQResults header and its one @SQRDocument.
const paperResult = "@SQResults{\n" +
	"Version{10}: STARTS 1.0\n" +
	"Sources{8}: Source-1\n" +
	"ActualFilterExpression{48}: ((author \"Ullman\") and (title stem \"databases\"))\n" +
	"ActualRankingExpression{61}: list((body-of-text \"distributed\") (body-of-text \"databases\"))\n" +
	"NumDocSOIFs{1}: 1\n" +
	"}\n\n" +
	"@SQRDocument{\n" +
	"Version{10}: STARTS 1.0\n" +
	"RawScore{4}: 0.82\n" +
	"Sources{8}: Source-1\n" +
	"linkage{47}: http://www-db.stanford.edu/~ullman/pub/dood.ps\n" +
	"title{68}: A Comparison Between Deductive and Object-Oriented Database Systems\n" +
	"TermStats{81}: (body-of-text \"distributed\") 10 0.31 190\n(body-of-text \"databases\") 15 0.51 232\n" +
	"DocSize{3}: 248\n" +
	"DocCount{5}: 10213\n" +
	"}\n\n"

// malformedLengths are the {len} spellings Sscanf("%d") took for a number
// and the decoder no longer does.
var malformedLengths = []string{"3x", "+3", " 3", "1_0", "0x3"}

func oracleUnmarshalAll(data []byte) ([]*Object, error) {
	dec := newOracleDecoder(bytes.NewReader(data))
	var objs []*Object
	for {
		o, err := dec.Decode()
		if errors.Is(err, io.EOF) {
			return objs, nil
		}
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
}

func oracleMarshal(t *testing.T, o *Object) []byte {
	var b bytes.Buffer
	if err := newOracleEncoder(&b).Encode(o); err != nil {
		t.Fatalf("oracle encoder rejected %#v: %v", o, err)
	}
	return b.Bytes()
}

// decodeStream decodes every object of data through a reading Decoder
// that is handed chunk bytes at a time.
func decodeStream(data []byte, chunk int) ([]*Object, *Decoder, error) {
	dec := NewDecoder(&chunkReader{data: data, chunk: chunk})
	var objs []*Object
	for {
		o, err := dec.Decode()
		if errors.Is(err, io.EOF) {
			return objs, dec, nil
		}
		if err != nil {
			return nil, dec, err
		}
		objs = append(objs, o)
	}
}

type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data[:min(r.chunk, len(r.data))])
	r.data = r.data[n:]
	return n, nil
}

// FuzzSOIFRoundTrip holds the rewritten codec to the one it replaced. On
// any input: no panic; the reading decoder's buffer is bounded by the
// input it was actually given, whatever lengths the input claims; reading
// from memory and from a stream agree; what the decoder accepts the
// oracle accepts and decodes to the same objects, and what the oracle
// alone accepts was refused for its {len}; every decoded object encodes
// to the oracle encoder's bytes and decodes back to itself.
func FuzzSOIFRoundTrip(f *testing.F) {
	f.Add([]byte(paperResult))
	f.Add([]byte("@FILE{ http://example.com/doc.ps\nTitle{3}: abc\n}\n"))
	f.Add([]byte("@SQuery{\nVersion{4000000000000000000}: STARTS 1.0\n}\n"))
	f.Add([]byte("@SQuery{\nVersion{2000000}: STARTS 1.0\n}\n"))
	f.Add([]byte("@A{\n}\n@B{\nAbstract{22}: multi\nline } and { @\n:\nEmpty{0}:\n}"))
	f.Add([]byte("@ \v T \u00a0{\n\v n \u0085{1}:\tx}"))
	for _, l := range malformedLengths {
		f.Add([]byte("@SQRDocument{\nTitle{" + l + "}: abc\n}\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalAll(data)
		want, oracleErr := oracleUnmarshalAll(data)
		switch {
		case err == nil && oracleErr != nil:
			t.Fatalf("decoded what the oracle refuses (%v): %#v", oracleErr, got)
		case err != nil && oracleErr == nil:
			if !strings.Contains(err.Error(), "invalid length") {
				t.Fatalf("refused what the oracle decodes: %v", err)
			}
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decoded %#v, oracle %#v", got, want)
		}

		chunk := 1 + len(data)%7
		streamed, dec, streamErr := decodeStream(data, chunk)
		if (streamErr == nil) != (err == nil) || !reflect.DeepEqual(streamed, got) {
			t.Fatalf("from a stream: %#v, %v; from memory: %#v, %v", streamed, streamErr, got, err)
		}
		if limit := 3*(len(data)+4096) + 2*maxTrustedLength; cap(dec.buf) > limit {
			t.Fatalf("%d input bytes grew the read buffer to %d (limit %d)", len(data), cap(dec.buf), limit)
		}

		objs := append(got, &Object{Type: "Fuzz", Attrs: []Attribute{{Name: "Raw", Value: string(data)}}})
		for _, o := range objs {
			enc, err := Marshal(o)
			if err != nil {
				t.Fatalf("cannot encode decoded %#v: %v", o, err)
			}
			if oracle := oracleMarshal(t, o); !bytes.Equal(enc, oracle) {
				t.Fatalf("encoded %q, oracle %q", enc, oracle)
			}
			if s := o.String(); s != string(enc) {
				t.Fatalf("String %q, Marshal %q", s, enc)
			}
			back, err := Unmarshal(enc)
			if err != nil || !reflect.DeepEqual(back, o) {
				t.Fatalf("decode(encode(%#v)) = %#v, %v", o, back, err)
			}
		}
		if all, err := MarshalAll(objs); err != nil {
			t.Fatal(err)
		} else if back, err := UnmarshalAll(all); err != nil || !reflect.DeepEqual(back, objs) {
			t.Fatalf("UnmarshalAll(MarshalAll(%#v)) = %#v, %v", objs, back, err)
		}
	})
}

// TestDecodeRejectsMalformedLength: a value's length is ASCII digits.
// Each of these decoded at the parent commit — "0x3" as length 0, which
// then read the value's own bytes as the next attribute.
func TestDecodeRejectsMalformedLength(t *testing.T) {
	for _, l := range malformedLengths {
		in := "@SQRDocument{\nTitle{" + l + "}: abc\n}\n"
		if o, err := Unmarshal([]byte(in)); err == nil {
			t.Errorf("Unmarshal(%q) = %#v, want an invalid-length error", in, o)
		}
		if _, err := NewDecoder(strings.NewReader(in)).Decode(); err == nil {
			t.Errorf("Decode(%q) succeeded, want an invalid-length error", in)
		}
	}
	o, err := Unmarshal([]byte("@SQRDocument{\nTitle{003}: abc\n}\n"))
	if err != nil || o.GetDefault("Title", "") != "abc" {
		t.Errorf("leading zeros: %#v, %v", o, err)
	}
}

// TestDecoderReadsAcrossFills drives the reading decoder over inputs it
// cannot hold in one read: a byte at a time, with the data and the end
// arriving together, and with values longer than its buffer ever starts.
func TestDecoderReadsAcrossFills(t *testing.T) {
	big := New("SQRDocument").Add("Abstract", strings.Repeat("long value ", 3*4096)).Add("title", "after")
	bigText, err := Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	in := append([]byte(paperResult), bigText...)
	in = append(in, paperResult...)
	want, err := UnmarshalAll(in)
	if err != nil || len(want) != 5 {
		t.Fatalf("UnmarshalAll = %d objects, %v", len(want), err)
	}
	readers := map[string]io.Reader{
		"whole":       bytes.NewReader(in),
		"one byte":    iotest.OneByteReader(bytes.NewReader(in)),
		"data+EOF":    iotest.DataErrReader(bytes.NewReader(in)),
		"seven bytes": &chunkReader{data: in, chunk: 7},
	}
	for name, r := range readers {
		dec := NewDecoder(r)
		for i, w := range want {
			o, err := dec.Decode()
			if err != nil || !reflect.DeepEqual(o, w) {
				t.Fatalf("%s: object %d = %#v, %v; want %#v", name, i, o, err, w)
			}
		}
		if _, err := dec.Decode(); err != io.EOF {
			t.Errorf("%s: after the last object: %v, want io.EOF", name, err)
		}
	}
	broken := errors.New("broken pipe")
	_, err = NewDecoder(io.MultiReader(strings.NewReader(paperResult[:100]), iotest.ErrReader(broken))).Decode()
	if !errors.Is(err, broken) {
		t.Errorf("read error mid-object surfaced as %v", err)
	}
}
