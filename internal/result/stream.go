package result

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"starts/internal/query"
	"starts/internal/soif"
)

// StreamItemType is the SOIF template type framing one increment of a
// streamed query response. Where @SQBatchItem frames whole answers to
// independent queries, @SQStreamItem frames successive slices of one
// answer as its merged rank stabilizes:
//
//	@SQStreamItem{ Rank{1}: 0  NumDocSOIFs{1}: 2 }
//	@SQRDocument{ ... } ×2              rank positions 0 and 1 are final
//	@SQStreamItem{ Rank{1}: 2  NumDocSOIFs{1}: 1 }
//	@SQRDocument{ ... }                 rank position 2 is final
//	@SQStreamItem{ Final{1}: 1 }
//	@SQResults{ ... }                   the complete answer, then EOF
//
// Rank names the answer position of the frame's first document, so a
// decoder can verify it is seeing a gapless prefix. The terminal frame
// sets Final and is followed by the answer's complete ordinary
// @SQResults object stream — headers, attribution and all — which makes
// a streamed response self-contained: a consumer may render documents as
// frames arrive and still end up holding exactly what the non-streamed
// endpoint would have sent. A server that fails after the preamble has
// been flushed reports it as a frame with an Error attribute, since the
// HTTP status is already committed. NumDocSOIFs makes document frames
// self-delimiting, exactly as in batch responses.
const StreamItemType = "SQStreamItem"

// StreamError is a server-side failure reported in-band inside a
// streamed response, after the point where an HTTP status could have
// carried it.
type StreamError struct {
	// Message is the server's error text.
	Message string
}

// Error implements error.
func (e *StreamError) Error() string {
	return fmt.Sprintf("result: stream failed at server: %s", e.Message)
}

// StreamItem is one decoded frame of a streamed response: a slice of
// newly final rank positions (Docs starting at answer position Rank),
// the terminal complete answer (Final), or an in-band failure (Err).
// Exactly one of Docs, Final and Err is populated, except that a
// document frame may legally carry zero documents.
type StreamItem struct {
	// Rank is the answer position of Docs[0] (0-based).
	Rank int
	// Docs are the newly final documents, best first.
	Docs []*Document
	// Final is the complete answer; set only on the terminal frame.
	Final *Results
	// Err is the server's in-band failure, if the stream died mid-answer.
	Err *StreamError
}

// EncodeStreamDocs writes one document frame: the @SQStreamItem header
// naming the rank of the first document, then the documents themselves.
func EncodeStreamDocs(enc *soif.Encoder, rank int, docs []*Document) error {
	head := soif.New(StreamItemType)
	head.Add("Version", query.Version)
	head.Add("Rank", strconv.Itoa(rank))
	head.Add("NumDocSOIFs", strconv.Itoa(len(docs)))
	if err := enc.Encode(head); err != nil {
		return err
	}
	for _, d := range docs {
		if err := enc.Encode(d.toSOIF()); err != nil {
			return err
		}
	}
	return nil
}

// EncodeStreamFinal writes the terminal frame: an @SQStreamItem header
// with Final set, then r's complete @SQResults object stream.
func EncodeStreamFinal(enc *soif.Encoder, r *Results) error {
	head := soif.New(StreamItemType)
	head.Add("Version", query.Version)
	head.Add("Final", "1")
	if err := enc.Encode(head); err != nil {
		return err
	}
	for _, o := range r.ToSOIF() {
		if err := enc.Encode(o); err != nil {
			return err
		}
	}
	return nil
}

// EncodeStreamError writes an error frame carrying itemErr's text. It is
// the in-band substitute for an HTTP error status once the response
// preamble has been flushed.
func EncodeStreamError(enc *soif.Encoder, itemErr error) error {
	head := soif.New(StreamItemType)
	head.Add("Version", query.Version)
	head.Add("Error", itemErr.Error())
	return enc.Encode(head)
}

// DecodeStreamItem reads the next complete frame from dec. A clean end
// of stream returns io.EOF; any other error means the stream is broken
// mid-frame and no further frames can be trusted. An in-band server
// failure is returned as a frame with Err set, not as a decode error.
//
// For compatibility with non-streaming servers, a stream whose first
// object is a plain @SQResults header decodes as a single terminal
// frame: the whole answer at once is a legal, if unhelpful, stream.
func DecodeStreamItem(dec *soif.Decoder) (*StreamItem, error) {
	head, err := dec.Decode()
	if errors.Is(err, io.EOF) {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("result: reading stream frame header: %w", err)
	}
	if strings.EqualFold(head.Type, ResultsType) {
		r, err := decodeResultsBody(dec, head)
		if err != nil {
			return nil, err
		}
		return &StreamItem{Final: r}, nil
	}
	if !strings.EqualFold(head.Type, StreamItemType) {
		return nil, fmt.Errorf("result: expected @%s frame, found @%s", StreamItemType, head.Type)
	}
	if msg, failed := head.Get("Error"); failed {
		return &StreamItem{Err: &StreamError{Message: msg}}, nil
	}
	if _, final := head.Get("Final"); final {
		rh, err := dec.Decode()
		if err != nil {
			return nil, fmt.Errorf("result: terminal stream frame: reading @%s header: %w", ResultsType, err)
		}
		if !strings.EqualFold(rh.Type, ResultsType) {
			return nil, fmt.Errorf("result: terminal stream frame: expected @%s, found @%s", ResultsType, rh.Type)
		}
		r, err := decodeResultsBody(dec, rh)
		if err != nil {
			return nil, err
		}
		return &StreamItem{Final: r}, nil
	}
	v, ok := head.Get("Rank")
	if !ok {
		return nil, fmt.Errorf("result: @%s frame missing Rank", StreamItemType)
	}
	rank, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || rank < 0 {
		return nil, fmt.Errorf("result: invalid stream frame Rank %q", v)
	}
	nv, ok := head.Get("NumDocSOIFs")
	if !ok {
		return nil, fmt.Errorf("result: @%s frame missing NumDocSOIFs", StreamItemType)
	}
	n, err := strconv.Atoi(strings.TrimSpace(nv))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("result: invalid stream frame NumDocSOIFs %q", nv)
	}
	it := &StreamItem{Rank: rank, Docs: make([]*Document, 0, min(n, maxDocsHint))}
	for i := 0; i < n; i++ {
		o, err := dec.Decode()
		if err != nil {
			return nil, fmt.Errorf("result: stream frame at rank %d: document %d of %d: %w", rank, i, n, err)
		}
		d, err := docFromSOIF(o)
		if err != nil {
			return nil, fmt.Errorf("result: stream frame at rank %d: document %d: %w", rank, i, err)
		}
		it.Docs = append(it.Docs, d)
	}
	return it, nil
}

// maxDocsHint caps the capacity a wire-declared NumDocSOIFs may reserve
// before any document has been decoded. The count comes from a remote
// source; the decode loop, not the header, proves it, so a lying header
// costs one bounded allocation and then fails on the first object that
// is not there. Answers longer than the cap grow by append.
const maxDocsHint = 1024

// decodeResultsBody consumes the NumDocSOIFs documents promised by an
// already-decoded @SQResults header and assembles the whole result.
func decodeResultsBody(dec *soif.Decoder, head *soif.Object) (*Results, error) {
	nv, ok := head.Get("NumDocSOIFs")
	if !ok {
		return nil, fmt.Errorf("result: @%s header missing NumDocSOIFs", ResultsType)
	}
	n, err := strconv.Atoi(strings.TrimSpace(nv))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("result: @%s header: invalid NumDocSOIFs %q", ResultsType, nv)
	}
	objs := make([]*soif.Object, 0, min(n, maxDocsHint)+1)
	objs = append(objs, head)
	for i := 0; i < n; i++ {
		o, err := dec.Decode()
		if err != nil {
			return nil, fmt.Errorf("result: document %d of %d: %w", i, n, err)
		}
		objs = append(objs, o)
	}
	return FromSOIF(objs)
}
