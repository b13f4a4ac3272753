package soif

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// cloneAll deep-copies objects, strings included, so that a later
// comparison sees what they said when they were decoded.
func cloneAll(objs []*Object) []*Object {
	out := make([]*Object, len(objs))
	for i, o := range objs {
		c := &Object{Type: strings.Clone(o.Type)}
		for _, a := range o.Attrs {
			c.Add(strings.Clone(a.Name), strings.Clone(a.Value))
		}
		out[i] = c
	}
	return out
}

// decodeReleased decodes every object of in through a fresh decoder,
// releases it, and returns the objects and the read buffer's first byte.
func decodeReleased(t *testing.T, in string) ([]*Object, *byte) {
	t.Helper()
	dec := NewDecoder(strings.NewReader(in))
	var objs []*Object
	for {
		o, err := dec.Decode()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	first := &dec.buf[:1][0]
	dec.Release()
	return objs, first
}

// TestReleaseLeavesDecodedStringsAlone: once answer A's decoder is
// released and answer B is read through the very same buffer, A's objects
// still say what they said — their strings are copies, never views of the
// buffer.
func TestReleaseLeavesDecodedStringsAlone(t *testing.T) {
	answerB := strings.ReplaceAll(paperResult, "Source-1", "Source-9")
	for attempt := 0; attempt < 20; attempt++ {
		a, bufA := decodeReleased(t, paperResult)
		want := cloneAll(a)
		b, bufB := decodeReleased(t, answerB)
		if bufA != bufB {
			continue // the pool dropped the buffer; try again
		}
		if !reflect.DeepEqual(a, want) {
			t.Fatalf("answer A changed under answer B:\n%#v\nwas\n%#v", a, want)
		}
		if v, _ := b[0].Get("Sources"); v != "Source-9" {
			t.Fatalf("answer B's Sources = %q", v)
		}
		return
	}
	t.Fatal("a released decoder's buffer was never handed to the next one")
}

// TestGrownDecoderIsNotPooled: a decoder whose read buffer or span slice
// grew past maxPooled leaves them to the collector.
func TestGrownDecoderIsNotPooled(t *testing.T) {
	many := New("Many")
	for i := 0; i < 4000; i++ {
		many.Add("a", "")
	}
	for _, o := range []*Object{New("Big").Add("v", strings.Repeat("x", 2*maxPooled)), many} {
		text, err := Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(strings.NewReader(string(text)))
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
		if cap(dec.buf) <= maxPooled && len(dec.attrs) <= 2048 {
			t.Fatalf("@%s grew nothing past the bound", o.Type)
		}
		dec.Release()
		for i := 0; i < 8; i++ {
			p := decoderPool.Get().(*Decoder)
			if cap(p.buf) > maxPooled || cap(p.attrs) > maxPooled/32 {
				t.Fatalf("@%s: the pool holds a %d-byte buffer and %d spans", o.Type, cap(p.buf), cap(p.attrs))
			}
			defer decoderPool.Put(p)
		}
	}
}

// TestReleaseAfterDecodeError: a decoder that failed mid-object releases
// safely, twice over; it then reads nothing, and the next decoder, on the
// recycled buffers, decodes as if new.
func TestReleaseAfterDecodeError(t *testing.T) {
	dec := NewDecoder(strings.NewReader(paperResult[:100]))
	if _, err := dec.Decode(); err == nil {
		t.Fatal("decoded a truncated object")
	}
	dec.Release()
	dec.Release()
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("a released decoder read %v, want io.EOF", err)
	}
	want, err := UnmarshalAll([]byte(paperResult))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := decodeReleased(t, paperResult); !reflect.DeepEqual(got, want) {
		t.Errorf("after a failed decoder: %#v, want %#v", got, want)
	}
}
