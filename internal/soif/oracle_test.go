package soif

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The encoder and decoder this package shipped before the allocation
// diet, moved here verbatim (names prefixed) as the slow oracle the
// rewritten codec is fuzzed against: same bytes out, same objects in, the
// one permitted disagreement being the {len} forms Sscanf("%d") let
// through (see TestDecodeRejectsMalformedLength).

// An oracleEncoder writes SOIF objects to an output stream.
type oracleEncoder struct {
	w   io.Writer
	err error
}

// newOracleEncoder returns an encoder writing to w.
func newOracleEncoder(w io.Writer) *oracleEncoder { return &oracleEncoder{w: w} }

// Encode writes one object. Each object ends with a closing brace and a
// blank line so consecutive objects are visually separated, matching the
// layout of the STARTS specification examples.
func (e *oracleEncoder) Encode(o *Object) error {
	if e.err != nil {
		return e.err
	}
	if err := validType(o.Type); err != nil {
		return err
	}
	var b bytes.Buffer
	b.WriteByte('@')
	b.WriteString(o.Type)
	b.WriteString("{\n")
	for _, a := range o.Attrs {
		if err := validName(a.Name); err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s{%d}: %s\n", a.Name, len(a.Value), a.Value)
	}
	b.WriteString("}\n\n")
	_, e.err = e.w.Write(b.Bytes())
	return e.err
}

// An oracleDecoder reads SOIF objects from an input stream.
type oracleDecoder struct {
	r *bufio.Reader
}

// newOracleDecoder returns a decoder reading from r.
func newOracleDecoder(r io.Reader) *oracleDecoder {
	return &oracleDecoder{r: bufio.NewReaderSize(r, 64<<10)}
}

// Decode reads the next object from the stream. It returns io.EOF when no
// further objects remain.
func (d *oracleDecoder) Decode() (*Object, error) {
	// Skip blank space between objects.
	for {
		c, err := d.r.ReadByte()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("soif: reading object start: %w", err)
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		if c != '@' {
			return nil, fmt.Errorf("soif: expected '@' at object start, found %q", c)
		}
		break
	}
	typeLine, err := d.r.ReadString('{')
	if err != nil {
		return nil, fmt.Errorf("soif: reading template type: %w", err)
	}
	o := &Object{Type: strings.TrimSpace(strings.TrimSuffix(typeLine, "{"))}
	if err := validType(o.Type); err != nil {
		return nil, err
	}
	// Optional rest-of-line after '{' (Harvest puts a URL here; STARTS does
	// not). Consume up to newline; a non-empty remainder becomes a pseudo
	// attribute "URL" for Harvest compatibility.
	rest, err := d.r.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("soif: reading template header: %w", err)
	}
	if rest = strings.TrimSpace(rest); rest != "" {
		o.Add("URL", rest)
	}
	for {
		// Each iteration parses either the closing '}' or one attribute.
		c, err := oraclePeekNonSpace(d.r)
		if err != nil {
			return nil, fmt.Errorf("soif: inside @%s: %w", o.Type, err)
		}
		if c == '}' {
			if _, err := d.r.ReadByte(); err != nil {
				return nil, err
			}
			return o, nil
		}
		name, err := d.r.ReadString('{')
		if err != nil {
			return nil, fmt.Errorf("soif: reading attribute name in @%s: %w", o.Type, err)
		}
		name = strings.TrimSpace(strings.TrimSuffix(name, "{"))
		if err := validName(name); err != nil {
			return nil, err
		}
		lenStr, err := d.r.ReadString('}')
		if err != nil {
			return nil, fmt.Errorf("soif: reading length of %s in @%s: %w", name, o.Type, err)
		}
		var n int
		if _, err := fmt.Sscanf(strings.TrimSuffix(lenStr, "}"), "%d", &n); err != nil || n < 0 {
			return nil, fmt.Errorf("soif: invalid length %q for attribute %s in @%s", strings.TrimSuffix(lenStr, "}"), name, o.Type)
		}
		// Expect ": " (tolerate ":" with no space, and tabs).
		if c, err := d.r.ReadByte(); err != nil || c != ':' {
			return nil, fmt.Errorf("soif: expected ':' after %s{%d} in @%s", name, n, o.Type)
		}
		if c, err := d.r.ReadByte(); err == nil && c != ' ' && c != '\t' {
			if err := d.r.UnreadByte(); err != nil {
				return nil, err
			}
		}
		val, err := oracleReadValue(d.r, n)
		if err != nil {
			return nil, fmt.Errorf("soif: value of %s in @%s truncated (want %d bytes): %w", name, o.Type, n, err)
		}
		o.Add(name, string(val))
	}
}

// oracleMaxTrustedLength is the largest declared value length the decoder
// allocates for before seeing the bytes.
const oracleMaxTrustedLength = 1 << 20

// oracleReadValue reads an n-byte attribute value. A declared length is only a
// claim until the bytes arrive — a forty-byte object can claim an exabyte
// — so past oracleMaxTrustedLength the buffer grows with what is actually read.
func oracleReadValue(r io.Reader, n int) ([]byte, error) {
	if n <= oracleMaxTrustedLength {
		val := make([]byte, n)
		_, err := io.ReadFull(r, val)
		return val, err
	}
	var buf bytes.Buffer
	_, err := io.CopyN(&buf, r, int64(n))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf.Bytes(), err
}

// oraclePeekNonSpace skips whitespace and returns the next byte without consuming
// it.
func oraclePeekNonSpace(r *bufio.Reader) (byte, error) {
	for {
		c, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		if err := r.UnreadByte(); err != nil {
			return 0, err
		}
		return c, nil
	}
}
