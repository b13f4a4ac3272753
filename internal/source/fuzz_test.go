package source

import (
	"bytes"
	"testing"

	"starts/internal/engine"
)

// FuzzParseSample: sample results come from remote sources, so whatever
// bytes ParseSample accepts must re-encode through AppendSample to bytes
// that parse and re-encode to the same bytes. (Bytes, not values: a
// RawScore may be NaN.) The seeds are a source's real sample stream, one
// under each stock profile, and truncations of it.
func FuzzParseSample(f *testing.F) {
	for _, cfg := range []engine.Config{engine.NewVectorConfig(), engine.NewBooleanConfig()} {
		eng, err := engine.New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		src, err := New("Source-1", eng)
		if err != nil {
			f.Fatal(err)
		}
		entries, err := src.SampleResults()
		if err != nil {
			f.Fatal(err)
		}
		data, err := AppendSample(nil, entries)
		if err != nil {
			f.Fatal(err)
		}
		for k := 8; k > 0; k-- {
			f.Add(data[:len(data)*k/8])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ParseSample(data)
		if err != nil {
			return
		}
		first, err := AppendSample(nil, entries)
		if err != nil {
			t.Fatalf("parsed sample does not encode: %v", err)
		}
		back, err := ParseSample(first)
		if err != nil {
			t.Fatalf("encoded sample does not parse: %v\n%s", err, first)
		}
		if second, err := AppendSample(nil, back); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("not stable (%v):\n%s\nthen\n%s", err, first, second)
		}
	})
}
