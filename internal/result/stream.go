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
	objs := make([]*soif.Object, len(docs))
	for i, d := range docs {
		objs[i] = d.toSOIF()
	}
	return encodeAll(enc, head, objs)
}

// EncodeStreamFinal writes the terminal frame: an @SQStreamItem header
// with Final set, then r's complete @SQResults object stream.
func EncodeStreamFinal(enc *soif.Encoder, r *Results) error {
	head := soif.New(StreamItemType)
	head.Add("Version", query.Version)
	head.Add("Final", "1")
	return encodeAll(enc, head, r.ToSOIF())
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
	switch {
	case strings.EqualFold(head.Type, ResultsType):
		// The whole answer at once: its header is the frame.
	case !strings.EqualFold(head.Type, StreamItemType):
		return nil, fmt.Errorf("result: expected @%s frame, found @%s", StreamItemType, head.Type)
	case head.Has("Error"):
		return &StreamItem{Err: &StreamError{Message: head.GetDefault("Error", "")}}, nil
	case head.Has("Final"):
		head = nil // the answer's own header follows
	default:
		rank, err := count(head, "Rank")
		if err != nil {
			return nil, err
		}
		n, err := count(head, "NumDocSOIFs")
		if err != nil {
			return nil, err
		}
		docs, err := decodeDocs(dec, n)
		if err != nil {
			return nil, fmt.Errorf("result: stream frame at rank %d: %w", rank, err)
		}
		return &StreamItem{Rank: rank, Docs: docs}, nil
	}
	r, err := decodeResults(dec, head)
	if err != nil {
		return nil, fmt.Errorf("result: terminal stream frame: %w", err)
	}
	return &StreamItem{Final: r}, nil
}

// count reads a frame's or header's attribute name, a non-negative integer
// that must be there.
func count(o *soif.Object, name string) (int, error) {
	v, ok := o.Get(name)
	if !ok {
		return 0, fmt.Errorf("result: @%s missing %s", o.Type, name)
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("result: @%s: invalid %s %q", o.Type, name, v)
	}
	return n, nil
}

// maxDocsHint caps the capacity a wire-declared NumDocSOIFs may reserve
// before any document has been decoded. The count comes from a remote
// source; the decode loop, not the header, proves it, so a lying header
// costs one bounded allocation and then fails on the first object that
// is not there. Answers longer than the cap grow by append.
const maxDocsHint = 1024

// decodeDocs reads the n documents a header promised, each as it arrives.
func decodeDocs(dec *soif.Decoder, n int) ([]*Document, error) {
	var docs []*Document
	if n > 0 {
		docs = make([]*Document, 0, min(n, maxDocsHint))
	}
	for i := 0; i < n; i++ {
		o, err := dec.Decode()
		if err != nil {
			return nil, fmt.Errorf("document %d of %d: %w", i, n, err)
		}
		d, err := docFromSOIF(o)
		if err != nil {
			return nil, fmt.Errorf("document %d: %w", i, err)
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// decodeResults reads one answer: the @SQResults header — head, or the
// next object when the caller has not read it yet — and the NumDocSOIFs
// documents it promises.
func decodeResults(dec *soif.Decoder, head *soif.Object) (*Results, error) {
	if head == nil {
		var err error
		if head, err = dec.Decode(); err != nil {
			return nil, fmt.Errorf("reading @%s header: %w", ResultsType, err)
		}
	}
	r, err := headerFromSOIF(head)
	if err != nil {
		return nil, err
	}
	n, err := count(head, "NumDocSOIFs")
	if err != nil {
		return nil, err
	}
	if r.Documents, err = decodeDocs(dec, n); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	return r, nil
}
