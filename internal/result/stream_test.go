package result

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"starts/internal/soif"
)

// TestStreamRoundTrip: document frames, a terminal frame and EOF decode
// back to exactly what was encoded.
func TestStreamRoundTrip(t *testing.T) {
	d1, d2 := source1Doc(), source2Doc()
	final := &Results{Sources: []string{"Source-1", "Source-2"}, Documents: []*Document{d1, d2}}

	wire, err := AppendStreamDocs(nil, 0, []*Document{d1})
	if err == nil {
		wire, err = AppendStreamDocs(wire, 1, []*Document{d2})
	}
	if err == nil {
		wire, err = AppendStreamFinal(wire, final)
	}
	if err != nil {
		t.Fatal(err)
	}

	dec := soif.NewDecoder(bytes.NewReader(wire))
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
	wire, err := AppendStreamDocs(nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	it, err := DecodeStreamItem(soif.NewDecoder(bytes.NewReader(wire)))
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
	wire := AppendStreamError(nil, errors.New("merge failed"))
	it, err := DecodeStreamItem(soif.NewDecoder(bytes.NewReader(wire)))
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
	wire, err := AppendStreamDocs(nil, 0, []*Document{source1Doc(), source2Doc()})
	if err != nil {
		t.Fatal(err)
	}
	cut := wire[:len(wire)/2]
	if _, err := DecodeStreamItem(soif.NewDecoder(bytes.NewReader(cut))); err == nil || err == io.EOF {
		t.Fatalf("truncated stream decoded: %v", err)
	}
}

// TestLyingDocCountsAreErrors: NumDocSOIFs comes from a remote source, so
// a header that promises more documents than follow — up to counts whose
// slice could never be allocated — must end in a decode error on all
// decoders that read it, never in a makeslice panic.
func TestLyingDocCountsAreErrors(t *testing.T) {
	honest := &Results{Sources: []string{"Source-1"}, Documents: []*Document{source1Doc()}}
	// resultsFrame is honest's object stream with its header's count
	// replaced by the lie.
	resultsFrame := func(lie string) []byte { return withCount(honest, lie) }
	decoders := []struct {
		name   string
		encode func(lie string) []byte
		decode func(dec *soif.Decoder) error
	}{
		{
			name: "DecodeStreamItem doc frame",
			encode: func(lie string) []byte {
				return join(head(StreamItemType, "Rank", "0", "NumDocSOIFs", lie), marshalAll(source1Doc().toSOIF()))
			},
			decode: func(dec *soif.Decoder) error { _, err := DecodeStreamItem(dec); return err },
		},
		{
			name:   "DecodeStreamItem terminal frame",
			encode: func(lie string) []byte { return join(head(StreamItemType, "Final", "1"), resultsFrame(lie)) },
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
		if err := d.decode(soif.NewDecoder(bytes.NewReader(d.encode("1")))); err != nil {
			t.Fatalf("%s: honest frame failed to decode: %v", d.name, err)
		}
		for _, lie := range lies {
			t.Run(d.name+"/"+lie, func(t *testing.T) {
				if err := d.decode(soif.NewDecoder(bytes.NewReader(d.encode(lie)))); err == nil || err == io.EOF {
					t.Errorf("NumDocSOIFs %s over one document decoded: err = %v, want a decode error", lie, err)
				}
			})
		}
	}
}
