package soif

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestJSONRoundTrip(t *testing.T) {
	o := New("SQuery")
	o.Add("Version", "STARTS 1.0")
	o.Add("FilterExpression", `((author "Ullman") and (title "databases"))`)
	o.Add("Field", "title")
	o.Add("Field", "author") // repeated attributes survive
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"type":"SQuery"`) {
		t.Errorf("JSON form: %s", data)
	}
	back := &Object{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o, back) {
		t.Errorf("round trip:\n got %#v\nwant %#v", back, o)
	}
}

func TestJSONArray(t *testing.T) {
	objs := []*Object{New("SQResults"), New("SQRDocument"), New("SQRDocument")}
	objs[0].Add("NumDocSOIFs", "2")
	objs[1].Add("RawScore", "0.82")
	objs[2].Add("RawScore", "0.27")
	data, err := MarshalAllJSON(objs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalAllJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || !reflect.DeepEqual(back[1], objs[1]) {
		t.Errorf("array round trip: %+v", back)
	}
	empty, err := MarshalAllJSON(nil)
	if err != nil || string(empty) != "[]" {
		t.Errorf("empty array = %q, %v", empty, err)
	}
	if got, err := UnmarshalAllJSON([]byte("[]")); err != nil || len(got) != 0 {
		t.Errorf("empty decode = %v, %v", got, err)
	}
}

func TestJSONErrors(t *testing.T) {
	bad := [][]byte{
		[]byte(`{`),
		[]byte(`{"type":"","attributes":[]}`),
		[]byte(`{"type":"ty{pe","attributes":[]}`),
		[]byte(`{"type":"T","attributes":[{"name":"has{brace","value":"v"}]}`),
	}
	for _, data := range bad {
		o := &Object{}
		if err := o.UnmarshalJSON(data); err == nil {
			t.Errorf("UnmarshalJSON(%s) succeeded", data)
		}
	}
	if _, err := UnmarshalAllJSON([]byte(`{"not":"an array"}`)); err == nil {
		t.Error("non-array accepted")
	}
	if _, err := UnmarshalAllJSON([]byte(`[{"type":""}]`)); err == nil {
		t.Error("invalid element accepted")
	}
	invalid := New("bad{type")
	if _, err := json.Marshal(invalid); err == nil {
		t.Error("invalid type marshalled")
	}
}

// Property: JSON and SOIF encodings agree — decoding either yields the
// same object.
func TestQuickJSONSOIFAgreement(t *testing.T) {
	f := func(vals []string) bool {
		o := New("SQuick")
		for i, v := range vals {
			o.Add("A"+string(rune('a'+i%26)), v)
		}
		jdata, err := json.Marshal(o)
		if err != nil {
			return false
		}
		sdata, err := Marshal(o)
		if err != nil {
			return false
		}
		fromJSON := &Object{}
		if err := json.Unmarshal(jdata, fromJSON); err != nil {
			return false
		}
		fromSOIF, err := Unmarshal(sdata)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(fromJSON, fromSOIF)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
