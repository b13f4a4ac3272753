package result

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"starts/internal/soif"
)

// BatchItemType is the SOIF template type framing one item of a
// multi-query (batch) response stream. STARTS' same-resource facility
// permits one request to carry several queries for a source; the batch
// response interleaves nothing — it is a sequence of self-delimiting
// frames, each an @SQBatchItem header followed (on success) by that
// item's complete @SQResults object stream:
//
//	@SQBatchItem{ Index{1}: 2 }
//	@SQResults{ ... NumDocSOIFs{1}: 3 }
//	@SQRDocument{ ... } ×3
//
// Index names the request position the frame answers, so the server may
// emit frames in completion order rather than request order. A failed
// item carries an Error attribute instead of a result stream, so one bad
// query never poisons its batch. NumDocSOIFs (always present in the
// header this package writes) tells a streaming decoder exactly how many
// document objects to consume, which is what makes the frames
// self-delimiting without any outer length prefix.
const BatchItemType = "SQBatchItem"

// BatchItemError is a per-item failure reported inside an otherwise
// healthy batch response. It is the client-side rendering of a frame's
// Error attribute.
type BatchItemError struct {
	// Index is the request position of the failed item.
	Index int
	// Message is the server's error text.
	Message string
}

// Error implements error.
func (e *BatchItemError) Error() string {
	return fmt.Sprintf("result: batch item %d failed at source: %s", e.Index, e.Message)
}

// AppendBatchItem appends one batch frame to dst: the @SQBatchItem header
// for index, then — when itemErr is nil — r's @SQResults object stream.
// With a non-nil itemErr the frame carries the error text and no result
// objects.
func AppendBatchItem(dst []byte, index int, r *Results, itemErr error) ([]byte, error) {
	var buf [20]byte
	dst = soif.AppendAttr(begin(dst, BatchItemType), "Index", strconv.AppendInt(buf[:0], int64(index), 10))
	if itemErr != nil {
		return soif.AppendEnd(soif.AppendAttr(dst, "Error", itemErr.Error())), nil
	}
	return r.AppendSOIF(soif.AppendEnd(dst))
}

// DecodeBatchItem reads the next complete frame from dec. It returns the
// frame's index and either its decoded result or its per-item error
// (itemErr, a *BatchItemError). A clean end of stream returns io.EOF in
// err; any other err means the stream itself is broken mid-frame and no
// further frames can be trusted.
func DecodeBatchItem(dec *soif.Decoder) (index int, r *Results, itemErr, err error) {
	head, err := dec.Decode()
	if errors.Is(err, io.EOF) {
		return 0, nil, nil, io.EOF
	}
	if err != nil {
		return 0, nil, nil, fmt.Errorf("result: reading batch frame header: %w", err)
	}
	if !strings.EqualFold(head.Type, BatchItemType) {
		return 0, nil, nil, fmt.Errorf("result: expected @%s frame, found @%s", BatchItemType, head.Type)
	}
	if index, err = count(head, "Index"); err != nil {
		return 0, nil, nil, err
	}
	if msg, failed := head.Get("Error"); failed {
		return index, nil, &BatchItemError{Index: index, Message: msg}, nil
	}
	// The item's own object stream: the @SQResults header names how many
	// @SQRDocument objects follow, making the frame self-delimiting.
	if r, err = decodeResults(dec, nil); err != nil {
		return index, nil, nil, fmt.Errorf("result: batch item %d: %w", index, err)
	}
	return index, r, nil, nil
}
