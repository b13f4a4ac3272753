package peer

import (
	"fmt"

	"starts/internal/result"
)

// Codec translates cached values to and from wire bytes, so the store
// can ship entries between peers. qcache stores decoded values (any);
// the codec is the store's only knowledge of what those values are.
type Codec interface {
	// Encode renders a cached value as bytes.
	Encode(v any) ([]byte, error)
	// Decode parses bytes produced by Encode back into a value.
	Decode(data []byte) (any, error)
}

// ResultsCodec moves *result.Results as the same length-framed SOIF
// stream the query endpoint speaks, so a peer cache entry is byte-
// compatible with a source's own query response.
type ResultsCodec struct{}

// Encode implements Codec.
func (ResultsCodec) Encode(v any) ([]byte, error) {
	r, ok := v.(*result.Results)
	if !ok {
		return nil, fmt.Errorf("peer: ResultsCodec cannot encode %T", v)
	}
	return r.Marshal()
}

// Decode implements Codec.
func (ResultsCodec) Decode(data []byte) (any, error) {
	return result.Parse(data)
}

// StringCodec moves plain string values, for tests and for caching
// pre-rendered payloads.
type StringCodec struct{}

// Encode implements Codec.
func (StringCodec) Encode(v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("peer: StringCodec cannot encode %T", v)
	}
	return []byte(s), nil
}

// Decode implements Codec.
func (StringCodec) Decode(data []byte) (any, error) {
	return string(data), nil
}
