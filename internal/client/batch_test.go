package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
	"starts/internal/source"
)

func batchQueries(t *testing.T, n int) []*query.Query {
	t.Helper()
	qs := make([]*query.Query, n)
	for i := range qs {
		q := query.New()
		r, err := query.ParseRanking(`list((any "term` + string(rune('a'+i)) + `"))`)
		if err != nil {
			t.Fatal(err)
		}
		q.Ranking = r
		qs[i] = q
	}
	return qs
}

// encodeFrames renders batch item frames into a buffer, out of order on
// purpose — completion order is the wire contract, not index order.
func encodeFrames(t *testing.T, frames []struct {
	idx int
	res *result.Results
	err error
}) *bytes.Buffer {
	t.Helper()
	var wire []byte
	for _, f := range frames {
		var err error
		if wire, err = result.AppendBatchItem(wire, f.idx, f.res, f.err); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.NewBuffer(wire)
}

// TestDecodeBatchCompletionOrder decodes a stream whose frames arrive
// out of index order, with one in-band item error.
func TestDecodeBatchCompletionOrder(t *testing.T) {
	qs := batchQueries(t, 3)
	stream := encodeFrames(t, []struct {
		idx int
		res *result.Results
		err error
	}{
		{2, &result.Results{Sources: []string{"S"}}, nil},
		{0, nil, errors.New("engine rejected item")},
		{1, &result.Results{Sources: []string{"S"}}, nil},
	})
	results := make([]*result.Results, 3)
	errs := make([]error, 3)
	var c Client
	c.decodeBatch(stream, qs, results, errs)
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "engine rejected item") {
		t.Errorf("errs[0] = %v, want the in-band item error", errs[0])
	}
	if results[1] == nil || errs[1] != nil {
		t.Errorf("item 1 = (%v, %v), want a result", results[1], errs[1])
	}
	if results[2] == nil || errs[2] != nil {
		t.Errorf("item 2 = (%v, %v), want a result", results[2], errs[2])
	}
}

// TestDecodeBatchMidStreamBreak pins the transport-breakage rule: a
// stream that dies mid-frame fails ONLY the items not yet decoded;
// already-decoded items keep their results.
func TestDecodeBatchMidStreamBreak(t *testing.T) {
	qs := batchQueries(t, 3)
	stream := encodeFrames(t, []struct {
		idx int
		res *result.Results
		err error
	}{
		{0, &result.Results{Sources: []string{"S"}}, nil},
	})
	stream.WriteString("garbage that is not a SOIF frame")
	results := make([]*result.Results, 3)
	errs := make([]error, 3)
	var c Client
	c.decodeBatch(stream, qs, results, errs)
	if results[0] == nil || errs[0] != nil {
		t.Errorf("item 0 = (%v, %v): decoded items must survive a later break", results[0], errs[0])
	}
	for i := 1; i < 3; i++ {
		if errs[i] == nil || !strings.Contains(errs[i].Error(), "broke after 1 of 3") {
			t.Errorf("errs[%d] = %v, want mid-stream break error", i, errs[i])
		}
	}
}

// TestDecodeBatchEarlyEOF pins the short-stream rule: a clean EOF before
// all items arrived fails the missing ones.
func TestDecodeBatchEarlyEOF(t *testing.T) {
	qs := batchQueries(t, 2)
	stream := encodeFrames(t, []struct {
		idx int
		res *result.Results
		err error
	}{
		{1, &result.Results{}, nil},
	})
	results := make([]*result.Results, 2)
	errs := make([]error, 2)
	var c Client
	c.decodeBatch(stream, qs, results, errs)
	if results[1] == nil {
		t.Error("item 1 lost despite arriving before EOF")
	}
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "ended after 1 of 2") {
		t.Errorf("errs[0] = %v, want early-EOF error", errs[0])
	}
}

// TestDecodeBatchProtocolViolations: an out-of-range or repeated index
// is a broken server; unresolved items fail.
func TestDecodeBatchProtocolViolations(t *testing.T) {
	t.Run("out-of-range", func(t *testing.T) {
		qs := batchQueries(t, 2)
		stream := encodeFrames(t, []struct {
			idx int
			res *result.Results
			err error
		}{
			{7, &result.Results{}, nil},
		})
		results := make([]*result.Results, 2)
		errs := make([]error, 2)
		var c Client
		c.decodeBatch(stream, qs, results, errs)
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "named item 7") {
				t.Errorf("errs[%d] = %v, want out-of-range error", i, err)
			}
		}
	})
	t.Run("repeated", func(t *testing.T) {
		qs := batchQueries(t, 2)
		stream := encodeFrames(t, []struct {
			idx int
			res *result.Results
			err error
		}{
			{0, &result.Results{}, nil},
			{0, &result.Results{}, nil},
		})
		results := make([]*result.Results, 2)
		errs := make([]error, 2)
		var c Client
		c.decodeBatch(stream, qs, results, errs)
		if errs[1] == nil || !strings.Contains(errs[1].Error(), "repeated item 0") {
			t.Errorf("errs[1] = %v, want repeated-item error", errs[1])
		}
	})
}

// TestBatchItemRoundTrip pins the frame codec both ways, including the
// error frame.
func TestBatchItemRoundTrip(t *testing.T) {
	res := &result.Results{Sources: []string{"S"}}
	wire, err := result.AppendBatchItem(nil, 3, res, nil)
	if err == nil {
		wire, err = result.AppendBatchItem(wire, 1, nil, errors.New("boom"))
	}
	if err != nil {
		t.Fatal(err)
	}
	dec := soif.NewDecoder(bytes.NewReader(wire))
	idx, r, itemErr, err := result.DecodeBatchItem(dec)
	if err != nil || idx != 3 || itemErr != nil || r == nil {
		t.Fatalf("frame 1 = (%d, %v, %v, %v)", idx, r, itemErr, err)
	}
	idx, r, itemErr, err = result.DecodeBatchItem(dec)
	if err != nil || idx != 1 || itemErr == nil || r != nil {
		t.Fatalf("frame 2 = (%d, %v, %v, %v)", idx, r, itemErr, err)
	}
	if !strings.Contains(itemErr.Error(), "boom") {
		t.Errorf("item error = %v", itemErr)
	}
	if _, _, _, err = result.DecodeBatchItem(dec); err != io.EOF {
		t.Errorf("trailing decode err = %v, want io.EOF", err)
	}
}

// TestLocalConnQueryBatch exercises the in-process batch path.
func TestLocalConnQueryBatch(t *testing.T) {
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := source.New("L1", eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Add(&index.Document{
		Linkage: "http://l1/doc", Title: "Databases and gardening",
		Body: "Databases, gardening, and distributed compost.",
	}); err != nil {
		t.Fatal(err)
	}
	var bc BatchConn = NewLocalConn(src, nil) // compile-time capability pin
	q1 := query.New()
	r1, err := query.ParseRanking(`list((any "databases"))`)
	if err != nil {
		t.Fatal(err)
	}
	q1.Ranking = r1
	q2 := query.New()
	r2, err := query.ParseRanking(`list((any "gardening"))`)
	if err != nil {
		t.Fatal(err)
	}
	q2.Ranking = r2
	results, errs := bc.QueryBatch(context.Background(), []*query.Query{q1, q2})
	if len(results) != 2 || len(errs) != 2 {
		t.Fatalf("got %d results, %d errs", len(results), len(errs))
	}
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("item %d: nil result", i)
		}
	}
}
