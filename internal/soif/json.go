package soif

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The paper deliberately leaves the wire format open: "we expect the
// STARTS information to be delivered in multiple ways in practice ...
// STARTS includes mechanisms to specify other formats for its contents."
// This file provides the second encoding: a JSON form of the same typed
// attribute-value objects, negotiated over HTTP with the Accept header.

// jsonObject is the JSON wire form of an Object.
type jsonObject struct {
	Type  string          `json:"type"`
	Attrs []jsonAttribute `json:"attributes"`
}

type jsonAttribute struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// MarshalJSON encodes the object as {"type": ..., "attributes": [...]},
// preserving attribute order and repetitions.
func (o *Object) MarshalJSON() ([]byte, error) {
	if err := validType(o.Type); err != nil {
		return nil, err
	}
	jo := jsonObject{Type: o.Type, Attrs: make([]jsonAttribute, len(o.Attrs))}
	for i, a := range o.Attrs {
		if err := ValidName(a.Name); err != nil {
			return nil, err
		}
		jo.Attrs[i] = jsonAttribute{Name: a.Name, Value: a.Value}
	}
	return json.Marshal(jo)
}

// UnmarshalJSON decodes the JSON wire form.
func (o *Object) UnmarshalJSON(data []byte) error {
	var jo jsonObject
	if err := json.Unmarshal(data, &jo); err != nil {
		return fmt.Errorf("soif: decoding JSON object: %w", err)
	}
	if err := validType(jo.Type); err != nil {
		return err
	}
	o.Type = jo.Type
	o.Attrs = o.Attrs[:0]
	for _, a := range jo.Attrs {
		if err := ValidName(a.Name); err != nil {
			return err
		}
		o.Attrs = append(o.Attrs, Attribute{Name: a.Name, Value: a.Value})
	}
	return nil
}

// MarshalAllJSON encodes a sequence of objects as a JSON array.
func MarshalAllJSON(objs []*Object) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, o := range objs {
		if i > 0 {
			buf.WriteByte(',')
		}
		data, err := o.MarshalJSON()
		if err != nil {
			return nil, err
		}
		buf.Write(data)
	}
	buf.WriteByte(']')
	return buf.Bytes(), nil
}

// UnmarshalAllJSON decodes a JSON array of objects.
func UnmarshalAllJSON(data []byte) ([]*Object, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("soif: decoding JSON object array: %w", err)
	}
	objs := make([]*Object, 0, len(raw))
	for i, r := range raw {
		o := &Object{}
		if err := o.UnmarshalJSON(r); err != nil {
			return nil, fmt.Errorf("soif: array element %d: %w", i, err)
		}
		objs = append(objs, o)
	}
	return objs, nil
}
