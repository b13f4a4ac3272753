// Package soif implements the Harvest Summary Object Interchange Format
// (SOIF) encoding used by STARTS to deliver queries, query results, source
// metadata, content summaries and resource descriptions.
//
// A SOIF object is a typed, ordered list of attribute-value pairs:
//
//	@SQuery{
//	Version{10}: STARTS 1.0
//	MaxNumberDocuments{2}: 10
//	}
//
// The number in braces after each attribute name is the byte length of the
// value, which makes parsing exact even for values that contain newlines or
// braces. Attribute names are case-insensitive on lookup but their original
// spelling and order are preserved, and an attribute may repeat (the STARTS
// content summary repeats Field/Language/TermDocFreq groups, for example).
package soif

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Attribute is a single name-value pair inside a SOIF object.
type Attribute struct {
	Name  string
	Value string
}

// Object is a typed SOIF object: a template type plus an ordered list of
// attributes. The zero value is an empty, untyped object ready for use.
type Object struct {
	Type  string
	Attrs []Attribute
}

// New returns an empty object of the given template type.
func New(templateType string) *Object {
	return &Object{Type: templateType}
}

// Add appends an attribute, preserving insertion order. Repeated names are
// allowed.
func (o *Object) Add(name, value string) *Object {
	o.Attrs = append(o.Attrs, Attribute{Name: name, Value: value})
	return o
}

// Addf appends an attribute with a formatted value.
func (o *Object) Addf(name, format string, args ...any) *Object {
	return o.Add(name, fmt.Sprintf(format, args...))
}

// Get returns the value of the first attribute with the given name
// (case-insensitive) and whether it was present.
func (o *Object) Get(name string) (string, bool) {
	for _, a := range o.Attrs {
		if strings.EqualFold(a.Name, name) {
			return a.Value, true
		}
	}
	return "", false
}

// GetDefault returns the value of the first attribute with the given name,
// or def if the attribute is absent.
func (o *Object) GetDefault(name, def string) string {
	if v, ok := o.Get(name); ok {
		return v
	}
	return def
}

// All returns the values of every attribute with the given name
// (case-insensitive), in order.
func (o *Object) All(name string) []string {
	var vs []string
	for _, a := range o.Attrs {
		if strings.EqualFold(a.Name, name) {
			vs = append(vs, a.Value)
		}
	}
	return vs
}

// Has reports whether an attribute with the given name is present.
func (o *Object) Has(name string) bool {
	_, ok := o.Get(name)
	return ok
}

// Set replaces the first attribute with the given name, or appends one if
// absent.
func (o *Object) Set(name, value string) {
	for i, a := range o.Attrs {
		if strings.EqualFold(a.Name, name) {
			o.Attrs[i].Value = value
			return
		}
	}
	o.Add(name, value)
}

// Len returns the number of attributes.
func (o *Object) Len() int { return len(o.Attrs) }

// String renders the object in SOIF syntax.
func (o *Object) String() string {
	var b strings.Builder
	if err := NewEncoder(&b).Encode(o); err != nil {
		// strings.Builder never fails; encode errors are validation only.
		return "@" + o.Type + "{<invalid: " + err.Error() + ">}"
	}
	return b.String()
}

// Marshal renders the object in SOIF syntax as bytes.
func Marshal(o *Object) ([]byte, error) {
	var b bytes.Buffer
	if err := NewEncoder(&b).Encode(o); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// MarshalAll renders a sequence of objects separated by blank lines, the
// form STARTS uses for query results (one SQResults object followed by a
// series of SQRDocument objects).
func MarshalAll(objs []*Object) ([]byte, error) {
	var b bytes.Buffer
	enc := NewEncoder(&b)
	for _, o := range objs {
		if err := enc.Encode(o); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// Unmarshal parses a single SOIF object from data. Trailing content after
// the object must be blank.
func Unmarshal(data []byte) (*Object, error) {
	dec := NewDecoder(bytes.NewReader(data))
	o, err := dec.Decode()
	if err != nil {
		return nil, err
	}
	if extra, err := dec.Decode(); err == nil {
		return nil, fmt.Errorf("soif: unexpected second object @%s after @%s", extra.Type, o.Type)
	} else if !errors.Is(err, io.EOF) {
		return nil, err
	}
	return o, nil
}

// UnmarshalAll parses every SOIF object in data.
func UnmarshalAll(data []byte) ([]*Object, error) {
	dec := NewDecoder(bytes.NewReader(data))
	var objs []*Object
	for {
		o, err := dec.Decode()
		if errors.Is(err, io.EOF) {
			return objs, nil
		}
		if err != nil {
			return nil, err
		}
		objs = append(objs, o)
	}
}

// An Encoder writes SOIF objects to an output stream.
type Encoder struct {
	w   io.Writer
	err error
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

func validName(name string) error {
	if name == "" {
		return errors.New("soif: empty attribute name")
	}
	for _, r := range name {
		switch {
		case r == '{' || r == '}' || r == ':':
			return fmt.Errorf("soif: attribute name %q contains reserved character %q", name, r)
		case r == '\n' || r == '\r':
			return fmt.Errorf("soif: attribute name %q contains newline", name)
		}
	}
	return nil
}

func validType(t string) error {
	if t == "" {
		return errors.New("soif: empty template type")
	}
	for _, r := range t {
		if r == '{' || r == '}' || r == '\n' || r == '\r' {
			return fmt.Errorf("soif: template type %q contains reserved character %q", t, r)
		}
	}
	return nil
}

// Encode writes one object. Each object ends with a closing brace and a
// blank line so consecutive objects are visually separated, matching the
// layout of the STARTS specification examples.
func (e *Encoder) Encode(o *Object) error {
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

// A Decoder reads SOIF objects from an input stream.
type Decoder struct {
	r *bufio.Reader
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 64<<10)}
}

// Decode reads the next object from the stream. It returns io.EOF when no
// further objects remain.
func (d *Decoder) Decode() (*Object, error) {
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
		c, err := peekNonSpace(d.r)
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
		val, err := readValue(d.r, n)
		if err != nil {
			return nil, fmt.Errorf("soif: value of %s in @%s truncated (want %d bytes): %w", name, o.Type, n, err)
		}
		o.Add(name, string(val))
	}
}

// maxTrustedLength is the largest declared value length the decoder
// allocates for before seeing the bytes.
const maxTrustedLength = 1 << 20

// readValue reads an n-byte attribute value. A declared length is only a
// claim until the bytes arrive — a forty-byte object can claim an exabyte
// — so past maxTrustedLength the buffer grows with what is actually read.
func readValue(r io.Reader, n int) ([]byte, error) {
	if n <= maxTrustedLength {
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

// peekNonSpace skips whitespace and returns the next byte without consuming
// it.
func peekNonSpace(r *bufio.Reader) (byte, error) {
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
