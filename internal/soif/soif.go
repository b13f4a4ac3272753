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
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
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
	b, err := Marshal(o)
	if err != nil {
		return "@" + o.Type + "{<invalid: " + err.Error() + ">}"
	}
	return string(b)
}

// Marshal renders the object in SOIF syntax as bytes.
func Marshal(o *Object) ([]byte, error) {
	return appendObject(make([]byte, 0, encodedLen(o)), o)
}

// MarshalAll renders a sequence of objects separated by blank lines, the
// form STARTS uses for query results (one SQResults object followed by a
// series of SQRDocument objects).
func MarshalAll(objs []*Object) ([]byte, error) {
	n := 0
	for _, o := range objs {
		n += encodedLen(o)
	}
	b := make([]byte, 0, n)
	for _, o := range objs {
		var err error
		if b, err = appendObject(b, o); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Unmarshal parses a single SOIF object from data. Trailing content after
// the object must be blank.
func Unmarshal(data []byte) (*Object, error) {
	dec := memDecoder(data)
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
	dec := memDecoder(data)
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
	buf []byte // the object being written; reused from one Encode to the next
	err error
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// validName and validType take the encoder's strings and the decoder's
// not-yet-converted bytes alike; every reserved character is ASCII, so a
// byte walk sees what a rune walk would.
func validName[T string | []byte](name T) error { return valid("attribute name", name, "{}:\n\r") }

func validType[T string | []byte](t T) error { return valid("template type", t, "{}\n\r") }

func valid[T string | []byte](what string, s T, reserved string) error {
	if len(s) == 0 {
		return fmt.Errorf("soif: empty %s", what)
	}
	for i := 0; i < len(s); i++ {
		if strings.IndexByte(reserved, s[i]) >= 0 {
			return fmt.Errorf("soif: %s %q contains reserved character %q", what, s, s[i])
		}
	}
	return nil
}

// Encode writes one object, in one Write. Each object ends with a closing
// brace and a blank line so consecutive objects are visually separated,
// matching the layout of the STARTS specification examples.
func (e *Encoder) Encode(o *Object) error {
	if e.err != nil {
		return e.err
	}
	b, err := appendObject(e.buf[:0], o)
	if err != nil {
		return err
	}
	e.buf = b
	_, e.err = e.w.Write(b)
	return e.err
}

// appendObject appends o's SOIF text to dst.
func appendObject(dst []byte, o *Object) ([]byte, error) {
	if err := validType(o.Type); err != nil {
		return nil, err
	}
	dst = append(dst, '@')
	dst = append(dst, o.Type...)
	dst = append(dst, "{\n"...)
	for _, a := range o.Attrs {
		if err := validName(a.Name); err != nil {
			return nil, err
		}
		dst = append(dst, a.Name...)
		dst = append(dst, '{')
		dst = strconv.AppendInt(dst, int64(len(a.Value)), 10)
		dst = append(dst, "}: "...)
		dst = append(dst, a.Value...)
		dst = append(dst, '\n')
	}
	return append(dst, "}\n\n"...), nil
}

// encodedLen is the exact length of appendObject's output for o.
func encodedLen(o *Object) int {
	n := len("@{\n}\n\n") + len(o.Type)
	for _, a := range o.Attrs {
		digits := 1
		for v := len(a.Value); v >= 10; v /= 10 {
			digits++
		}
		n += len(a.Name) + len("{}: \n") + digits + len(a.Value)
	}
	return n
}

// A Decoder reads SOIF objects from an input stream. It scans each object
// once, in its own buffer, noting where the type and every name and value
// lie; at the closing brace the object's text becomes one string and the
// object's fields are substrings of it, so a decoded object keeps its own
// text alive and nothing else.
type Decoder struct {
	r   io.Reader // nil when decoding from memory
	buf []byte    // input taken from r; the object being decoded is buf[start:pos]
	// pos is the scan cursor. fill may move buf's contents, so whatever
	// else the scan remembers is an offset from start.
	start, pos int
	attrs      []attrSpan
}

// attrSpan locates one attribute in the current object. A nameLo of -1 is
// the Harvest header URL: no spelled name, and a value still to trim.
type attrSpan struct{ nameLo, nameHi, valLo, valHi int }

// NewDecoder returns a decoder reading from r. It reads ahead: bytes of r
// past the last decoded object may have been consumed.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// memDecoder returns a decoder over data, which it never writes to.
func memDecoder(data []byte) Decoder { return Decoder{buf: data} }

const (
	// minRead is the size of the buffer a Decoder starts with.
	minRead = 4096
	// maxTrustedLength is the largest declared value length the decoder
	// allocates for before seeing the bytes.
	maxTrustedLength = 1 << 20
)

// fill reads more of r into buf, first dropping the bytes before the
// current object. want is how much more the caller knows is coming: a
// declared length is only a claim until the bytes arrive (a forty-byte
// object can claim an exabyte), so buf is grown ahead for at most
// maxTrustedLength of it and with what is actually read past that.
func (d *Decoder) fill(want int) error {
	if d.r == nil {
		return io.EOF
	}
	if d.start > 0 {
		n := copy(d.buf, d.buf[d.start:])
		d.buf, d.pos, d.start = d.buf[:n], d.pos-d.start, 0
	}
	// Room for a Read worth making: a buffer of minRead to start with, a
	// bigger one only once the object in progress fills most of it.
	d.buf = slices.Grow(d.buf, max(minRead-len(d.buf), minRead/8, min(want, maxTrustedLength)))
	n, err := io.ReadAtLeast(d.r, d.buf[len(d.buf):cap(d.buf)], 1)
	d.buf = d.buf[:len(d.buf)+n]
	return err
}

// skipSpace moves the cursor to the next byte that is not a blank, tab or
// line end and returns it, unconsumed.
func (d *Decoder) skipSpace() (byte, error) {
	for {
		for ; d.pos < len(d.buf); d.pos++ {
			if c := d.buf[d.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
				return c, nil
			}
		}
		if err := d.fill(0); err != nil {
			return 0, err
		}
	}
}

// accept consumes the byte at the cursor if it is one of set.
func (d *Decoder) accept(set string) bool {
	if d.pos == len(d.buf) && d.fill(0) != nil || strings.IndexByte(set, d.buf[d.pos]) < 0 {
		return false
	}
	d.pos++
	return true
}

// readTo moves the cursor past the next delim and returns the span of the
// bytes before it.
func (d *Decoder) readTo(delim byte) (lo, hi int, err error) {
	lo = d.pos - d.start
	for {
		if i := bytes.IndexByte(d.buf[d.pos:], delim); i >= 0 {
			d.pos += i + 1
			return lo, d.pos - 1 - d.start, nil
		}
		d.pos = len(d.buf)
		if err := d.fill(0); err != nil {
			return 0, 0, err
		}
	}
}

// word returns a span's bytes, trimmed as strings.TrimSpace trims; the
// slice is good until the next fill.
func (d *Decoder) word(lo, hi int) []byte { return bytes.TrimSpace(d.buf[d.start+lo : d.start+hi]) }

// Decode reads the next object from the stream. It returns io.EOF when no
// further objects remain.
func (d *Decoder) Decode() (*Object, error) {
	d.start = d.pos // the previous object is the caller's now
	c, err := d.skipSpace()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("soif: reading object start: %w", err)
	}
	if c != '@' {
		return nil, fmt.Errorf("soif: expected '@' at object start, found %q", c)
	}
	d.start, d.attrs = d.pos, d.attrs[:0]
	d.pos++
	typeLo, typeHi, err := d.readTo('{')
	if err != nil {
		return nil, fmt.Errorf("soif: reading template type: %w", err)
	}
	typ := func() []byte { return d.word(typeLo, typeHi) }
	if err := validType(typ()); err != nil {
		return nil, err
	}
	// Optional rest-of-line after '{' (Harvest puts a URL here; STARTS does
	// not). A non-empty remainder becomes a pseudo attribute "URL" for
	// Harvest compatibility.
	lo, hi, err := d.readTo('\n')
	if err != nil {
		return nil, fmt.Errorf("soif: reading template header: %w", err)
	}
	if len(d.word(lo, hi)) > 0 {
		d.attrs = append(d.attrs, attrSpan{nameLo: -1, valLo: lo, valHi: hi})
	}
	for {
		// Each iteration parses either the closing '}' or one attribute.
		c, err := d.skipSpace()
		if err != nil {
			return nil, fmt.Errorf("soif: inside @%s: %w", typ(), err)
		}
		if c == '}' {
			d.pos++
			return d.object(typeLo, typeHi), nil
		}
		a, err := d.attribute(typ)
		if err != nil {
			return nil, err
		}
		d.attrs = append(d.attrs, a)
	}
}

// attribute scans one `name{len}: value` from the cursor; typ names the
// object it belongs to.
func (d *Decoder) attribute(typ func() []byte) (a attrSpan, err error) {
	name := func() []byte { return d.word(a.nameLo, a.nameHi) }
	if a.nameLo, a.nameHi, err = d.readTo('{'); err != nil {
		return a, fmt.Errorf("soif: reading attribute name in @%s: %w", typ(), err)
	}
	if err := validName(name()); err != nil {
		return a, err
	}
	lo, hi, err := d.readTo('}')
	if err != nil {
		return a, fmt.Errorf("soif: reading length of %s in @%s: %w", name(), typ(), err)
	}
	// ASCII digits and nothing else: a sign, a blank, an underscore or a
	// base prefix is somebody else's idea of a number, not a byte count.
	length := d.buf[d.start+lo : d.start+hi]
	n, ok := 0, len(length) > 0
	for _, c := range length {
		if c < '0' || c > '9' || n > (math.MaxInt-int(c-'0'))/10 {
			ok = false
			break
		}
		n = n*10 + int(c-'0')
	}
	if !ok {
		return a, fmt.Errorf("soif: invalid length %q for attribute %s in @%s", length, name(), typ())
	}
	// Expect ": " (tolerate ":" with no space, and tabs).
	if !d.accept(":") {
		return a, fmt.Errorf("soif: expected ':' after %s{%d} in @%s", name(), n, typ())
	}
	d.accept(" \t")
	for len(d.buf)-d.pos < n {
		have := len(d.buf) - d.pos
		if err := d.fill(n - have); err != nil {
			// The distinction is io.ReadFull's, which the decoder used to
			// read values with: UnmarshalAll ends quietly on io.EOF.
			if err == io.EOF && (have > 0 || n > maxTrustedLength) {
				err = io.ErrUnexpectedEOF
			}
			return a, fmt.Errorf("soif: value of %s in @%s truncated (want %d bytes): %w", name(), typ(), n, err)
		}
	}
	a.valLo = d.pos - d.start
	d.pos += n
	a.valHi = d.pos - d.start
	return a, nil
}

// object builds the scanned object: one string, one attribute slice.
func (d *Decoder) object(typeLo, typeHi int) *Object {
	text := string(d.buf[d.start:d.pos])
	o := &Object{Type: strings.TrimSpace(text[typeLo:typeHi])}
	if len(d.attrs) > 0 {
		o.Attrs = make([]Attribute, len(d.attrs))
	}
	for i, a := range d.attrs {
		if a.nameLo < 0 {
			o.Attrs[i] = Attribute{Name: "URL", Value: strings.TrimSpace(text[a.valLo:a.valHi])}
		} else {
			o.Attrs[i] = Attribute{Name: strings.TrimSpace(text[a.nameLo:a.nameHi]), Value: text[a.valLo:a.valHi]}
		}
	}
	return o
}
