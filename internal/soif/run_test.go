package soif

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// decodeRunThenEach decodes the first k objects of data, read chunk bytes
// at a time, with one DecodeRun into one object, and the rest with
// Decode: the objects, deep-copied as yielded, and the error that ended
// the stream (io.EOF for a clean end).
func decodeRunThenEach(data []byte, chunk, k int) ([]*Object, error) {
	dec := NewDecoder(&chunkReader{data: data, chunk: chunk})
	defer dec.Release()
	var objs []*Object
	o := new(Object)
	err := dec.DecodeRun(k, o, func(o *Object) error {
		objs = append(objs, cloneAll([]*Object{o})...)
		return nil
	})
	for err == nil {
		var next *Object
		if next, err = dec.Decode(); err == nil {
			objs = append(objs, next)
		}
	}
	return objs, err
}

// FuzzDecodeRunMatchesDecode holds DecodeRun to the object-by-object
// Decode it stands in for on the wire: on any input, read in any chunks,
// a run of any length followed by Decode yields the same objects, and
// ends in the same error, as Decode alone.
func FuzzDecodeRunMatchesDecode(f *testing.F) {
	f.Add([]byte(paperResult), uint8(3), uint8(7))
	f.Add([]byte(paperResult+paperResult), uint8(4), uint8(200))
	f.Add([]byte(paperResult[:len(paperResult)-30]), uint8(2), uint8(1))
	f.Add([]byte("@A{\n}\n@B{ http://x\nv{1}: x\n}\n@C{\nv{9}: x\n}"), uint8(3), uint8(5))
	f.Add([]byte("@A{\n}\n garbage"), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, k, chunk uint8) {
		var want []*Object
		dec := NewDecoder(bytes.NewReader(data))
		werr := error(nil)
		for werr == nil {
			var o *Object
			if o, werr = dec.Decode(); werr == nil {
				want = append(want, o)
			}
		}
		dec.Release()
		got, gerr := decodeRunThenEach(data, 1+int(chunk), int(k))
		if (gerr == io.EOF) != (werr == io.EOF) || gerr.Error() != werr.Error() {
			t.Fatalf("run of %d: error %v, Decode %v", k, gerr, werr)
		}
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("run of %d:\n%#v\nDecode\n%#v", k, got, want)
		}
	})
}

// TestDecodeRunSharesTextPerRun: a run's objects share one string for
// every runBytes or so of their text — one copy of it, not one per
// object — and yield's error ends the run at once.
func TestDecodeRunSharesTextPerRun(t *testing.T) {
	var data []byte
	var lens []int
	const n = 100
	for i := 0; i < n; i++ {
		o := New("SQRDocument").Add("linkage", "http://run/"+strconv.Itoa(i)).Add("Body", strings.Repeat("x", 500))
		text, err := Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		data, lens = append(data, text...), append(lens, len(text))
	}
	dec := NewDecoder(bytes.NewReader(data))
	defer dec.Release()
	// An object's type is the front of its text, so in one string the
	// next object's lies exactly the object's encoded length further on.
	var last uintptr
	seen, runs := 0, 0
	err := dec.DecodeRun(n, new(Object), func(o *Object) error {
		if v, _ := o.Get("linkage"); v != "http://run/"+strconv.Itoa(seen) {
			t.Fatalf("object %d has linkage %q", seen, v)
		}
		at := uintptr(unsafe.Pointer(unsafe.StringData(o.Type))) - 1 // the '@'
		if seen == 0 || at-last != uintptr(lens[seen-1]) {
			runs++
		}
		last = at
		seen++
		return nil
	})
	if err != nil || seen != n {
		t.Fatalf("%d objects, %v", seen, err)
	}
	if want := (len(data) + runBytes - 1) / runBytes; runs < want-1 || runs > want+1 {
		t.Errorf("%d bytes of text in %d strings, want about %d", len(data), runs, want)
	}
	stop := errors.New("stop")
	calls := 0
	dec = NewDecoder(bytes.NewReader(data))
	defer dec.Release()
	if err := dec.DecodeRun(n, new(Object), func(*Object) error { calls++; return stop }); err != stop || calls != 1 {
		t.Errorf("yield's error: %v after %d calls", err, calls)
	}
}
