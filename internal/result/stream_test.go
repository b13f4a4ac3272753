package result

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"starts/internal/query"
	"starts/internal/soif"
)

// TestStreamRoundTrip: document frames, a terminal frame and EOF decode
// back to exactly what was encoded.
func TestStreamRoundTrip(t *testing.T) {
	d1, d2 := source1Doc(), source2Doc()
	final := &Results{Sources: []string{"Source-1", "Source-2"}, Documents: []*Document{d1, d2}}

	var buf bytes.Buffer
	enc := soif.NewEncoder(&buf)
	if err := EncodeStreamDocs(enc, 0, []*Document{d1}); err != nil {
		t.Fatal(err)
	}
	if err := EncodeStreamDocs(enc, 1, []*Document{d2}); err != nil {
		t.Fatal(err)
	}
	if err := EncodeStreamFinal(enc, final); err != nil {
		t.Fatal(err)
	}

	dec := soif.NewDecoder(&buf)
	it, err := DecodeStreamItem(dec)
	if err != nil {
		t.Fatal(err)
	}
	if it.Rank != 0 || len(it.Docs) != 1 || !reflect.DeepEqual(it.Docs[0], d1) {
		t.Fatalf("frame 1 = %+v", it)
	}
	it, err = DecodeStreamItem(dec)
	if err != nil {
		t.Fatal(err)
	}
	if it.Rank != 1 || len(it.Docs) != 1 || !reflect.DeepEqual(it.Docs[0], d2) {
		t.Fatalf("frame 2 = %+v", it)
	}
	it, err = DecodeStreamItem(dec)
	if err != nil {
		t.Fatal(err)
	}
	if it.Final == nil {
		t.Fatalf("frame 3 not terminal: %+v", it)
	}
	if !reflect.DeepEqual(it.Final.Documents, final.Documents) || !reflect.DeepEqual(it.Final.Sources, final.Sources) {
		t.Fatalf("terminal answer = %+v", it.Final)
	}
	if _, err := DecodeStreamItem(dec); err != io.EOF {
		t.Fatalf("after terminal frame: %v, want io.EOF", err)
	}
}

// TestStreamEmptyDocFrame: a zero-document frame is legal (a source
// completed without stabilizing anything).
func TestStreamEmptyDocFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeStreamDocs(soif.NewEncoder(&buf), 3, nil); err != nil {
		t.Fatal(err)
	}
	it, err := DecodeStreamItem(soif.NewDecoder(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if it.Rank != 3 || len(it.Docs) != 0 || it.Final != nil || it.Err != nil {
		t.Fatalf("empty frame = %+v", it)
	}
}

// TestStreamErrorFrame: a mid-stream server failure arrives as a frame
// with Err set, not a decode error.
func TestStreamErrorFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeStreamError(soif.NewEncoder(&buf), errors.New("merge failed")); err != nil {
		t.Fatal(err)
	}
	it, err := DecodeStreamItem(soif.NewDecoder(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if it.Err == nil || it.Err.Message != "merge failed" {
		t.Fatalf("error frame = %+v", it)
	}
	if it.Err.Error() == "" {
		t.Fatal("StreamError.Error() empty")
	}
}

// TestStreamCompatPlainResults: a non-streaming server's plain
// @SQResults body decodes as one terminal frame.
func TestStreamCompatPlainResults(t *testing.T) {
	final := &Results{Sources: []string{"Source-1"}, Documents: []*Document{source1Doc()}}
	data, err := final.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dec := soif.NewDecoder(bytes.NewReader(data))
	it, err := DecodeStreamItem(dec)
	if err != nil {
		t.Fatal(err)
	}
	if it.Final == nil || len(it.Final.Documents) != 1 {
		t.Fatalf("plain results decoded as %+v", it)
	}
	if _, err := DecodeStreamItem(dec); err != io.EOF {
		t.Fatalf("after plain results: %v, want io.EOF", err)
	}
}

// TestStreamTruncated: a stream cut off mid-frame reports a hard decode
// error, not a silent short answer.
func TestStreamTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeStreamDocs(soif.NewEncoder(&buf), 0, []*Document{source1Doc(), source2Doc()}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := DecodeStreamItem(soif.NewDecoder(bytes.NewReader(cut))); err == nil || err == io.EOF {
		t.Fatalf("truncated stream decoded: %v", err)
	}
}

// TestLyingDocCountsAreErrors: NumDocSOIFs comes from a remote source, so
// a header that promises more documents than follow — up to counts whose
// slice could never be allocated — must end in a decode error on all
// three decoders that read it, never in a makeslice panic.
func TestLyingDocCountsAreErrors(t *testing.T) {
	honest := &Results{Sources: []string{"Source-1"}, Documents: []*Document{source1Doc()}}
	// resultsFrame is honest's object stream with its header's count
	// replaced by the lie.
	resultsFrame := func(t *testing.T, enc *soif.Encoder, lie string) {
		objs := honest.ToSOIF()
		objs[0].Set("NumDocSOIFs", lie)
		for _, o := range objs {
			if err := enc.Encode(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	head := func(t *testing.T, enc *soif.Encoder, typ string, kv ...string) {
		h := soif.New(typ).Add("Version", query.Version)
		for i := 0; i < len(kv); i += 2 {
			h.Add(kv[i], kv[i+1])
		}
		if err := enc.Encode(h); err != nil {
			t.Fatal(err)
		}
	}
	decoders := []struct {
		name   string
		encode func(t *testing.T, enc *soif.Encoder, lie string)
		decode func(dec *soif.Decoder) error
	}{
		{
			name: "DecodeBatchItem",
			encode: func(t *testing.T, enc *soif.Encoder, lie string) {
				head(t, enc, BatchItemType, "Index", "0")
				resultsFrame(t, enc, lie)
			},
			decode: func(dec *soif.Decoder) error { _, _, _, err := DecodeBatchItem(dec); return err },
		},
		{
			name: "DecodeStreamItem doc frame",
			encode: func(t *testing.T, enc *soif.Encoder, lie string) {
				head(t, enc, StreamItemType, "Rank", "0", "NumDocSOIFs", lie)
				if err := enc.Encode(source1Doc().toSOIF()); err != nil {
					t.Fatal(err)
				}
			},
			decode: func(dec *soif.Decoder) error { _, err := DecodeStreamItem(dec); return err },
		},
		{
			name: "DecodeStreamItem terminal frame",
			encode: func(t *testing.T, enc *soif.Encoder, lie string) {
				head(t, enc, StreamItemType, "Final", "1")
				resultsFrame(t, enc, lie)
			},
			decode: func(dec *soif.Decoder) error { _, err := DecodeStreamItem(dec); return err },
		},
		{
			name:   "DecodeStreamItem plain results",
			encode: resultsFrame,
			decode: func(dec *soif.Decoder) error { _, err := DecodeStreamItem(dec); return err },
		},
	}
	lies := []string{"2", "1025", "4294967296", "9223372036854775806", "9223372036854775807", "-1", "9223372036854775808"}
	for _, d := range decoders {
		// The control: with the true count the very same frame decodes.
		var buf bytes.Buffer
		d.encode(t, soif.NewEncoder(&buf), "1")
		if err := d.decode(soif.NewDecoder(&buf)); err != nil {
			t.Fatalf("%s: honest frame failed to decode: %v", d.name, err)
		}
		for _, lie := range lies {
			t.Run(d.name+"/"+lie, func(t *testing.T) {
				var buf bytes.Buffer
				d.encode(t, soif.NewEncoder(&buf), lie)
				if err := d.decode(soif.NewDecoder(&buf)); err == nil || err == io.EOF {
					t.Errorf("NumDocSOIFs %s over one document decoded: err = %v, want a decode error", lie, err)
				}
			})
		}
	}
}
