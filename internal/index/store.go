package index

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"starts/internal/attr"
	"starts/internal/lang"
)

// docRecord is one stored document: its linkage, title, authors (joined
// as Document.FieldText joins them) and body back to back in text, a view
// of the one allocation Build makes for the index's text.
type docRecord struct {
	text                string
	title, author, body uint32 // where each field after the linkage starts in text
	extra               uint32 // 1 + the index of the document's docExtra; 0 for none
	date                int64  // Unix seconds; noDate for none
}

const noDate = math.MinInt64

// docExtra holds what few documents carry. Consecutive documents with
// equal entries share one.
type docExtra struct {
	linkageType string
	languages   []lang.Tag
	crossRefs   []string
	authors     []string // all of them, when the author text is not the one author
	nsec        int32    // the date's nanoseconds
}

var noExtra docExtra // never written

func (x *docExtra) equal(y *docExtra) bool {
	return x.linkageType == y.linkageType && x.nsec == y.nsec && slices.Equal(x.languages, y.languages) &&
		slices.Equal(x.crossRefs, y.crossRefs) && slices.Equal(x.authors, y.authors)
}

// textLen returns the length of the document's stored text.
func textLen(d *Document) int {
	n := len(d.Linkage) + len(d.Title) + len(d.Body) + max(len(d.Authors)-1, 0)*len(", ")
	for _, a := range d.Authors {
		n += len(a)
	}
	return n
}

// writeRecord appends the document's text to b, grown beforehand to hold
// it, and returns its record and its side-table entry, whose slices are
// still the document's.
func writeRecord(b *strings.Builder, d *Document) (docRecord, docExtra) {
	start := b.Len()
	b.WriteString(d.Linkage)
	r := docRecord{title: uint32(b.Len() - start), date: noDate}
	b.WriteString(d.Title)
	r.author = uint32(b.Len() - start)
	for i, a := range d.Authors {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a)
	}
	r.body = uint32(b.Len() - start)
	b.WriteString(d.Body)
	r.text = b.String()[start:]
	x := docExtra{linkageType: d.LinkageType, languages: d.Languages, crossRefs: d.CrossRefs}
	if !d.Date.IsZero() {
		r.date, x.nsec = d.Date.Unix(), int32(d.Date.Nanosecond())
	}
	if len(d.Authors) > 1 || len(d.Authors) == 1 && d.Authors[0] == "" {
		x.authors = d.Authors
	}
	return r, x
}

// addRecord stores a document's record and a copy of its side-table
// entry.
func (ix *Index) addRecord(r docRecord, x docExtra) {
	if !x.equal(&noExtra) {
		if n := len(ix.extras); n == 0 || !ix.extras[n-1].equal(&x) {
			x.languages, x.crossRefs, x.authors = slices.Clone(x.languages), slices.Clone(x.crossRefs), slices.Clone(x.authors)
			ix.extras = append(ix.extras, x)
		}
		r.extra = uint32(len(ix.extras))
		if len(x.languages) > 0 {
			ix.numTagged++
		}
	}
	ix.recs = append(ix.recs, r)
}

func (r *docRecord) linkage() string { return r.text[:r.title] }

// field returns the record's text of linkage, title, author or body; ""
// for any other field.
func (r *docRecord) field(f attr.Field) string {
	switch f {
	case attr.FieldLinkage:
		return r.linkage()
	case attr.FieldTitle:
		return r.text[r.title:r.author]
	case attr.FieldAuthor:
		return r.text[r.author:r.body]
	case attr.FieldBodyOfText:
		return r.text[r.body:]
	}
	return ""
}

func (ix *Index) extraOf(id int) *docExtra {
	if e := ix.recs[id].extra; e > 0 {
		return &ix.extras[e-1]
	}
	return &noExtra
}

// date returns the document's date in UTC, the zero time for none.
func (ix *Index) date(id int) time.Time {
	if sec := ix.recs[id].date; sec != noDate {
		return time.Unix(sec, int64(ix.extraOf(id).nsec)).UTC()
	}
	return time.Time{}
}

// unixDay returns the UTC day of a Unix time, counted from the epoch.
func unixDay(sec int64) int64 {
	if sec < 0 {
		return (sec+1)/86400 - 1
	}
	return sec / 86400
}

// fieldText is Document.FieldText of the stored document.
func (ix *Index) fieldText(id int, f attr.Field) string {
	switch f = attr.Normalize(f); f {
	case attr.FieldLinkage, attr.FieldTitle, attr.FieldAuthor, attr.FieldBodyOfText:
		return ix.recs[id].field(f)
	}
	x := ix.extraOf(id)
	d := Document{LinkageType: x.linkageType, Languages: x.languages, CrossRefs: x.crossRefs, Date: ix.date(id)}
	return d.FieldText(f)
}

// sizeKB is Document.SizeKB of the stored document.
func (ix *Index) sizeKB(id int) int {
	r := &ix.recs[id]
	n := len(r.text) - int(r.title)
	if authors := ix.extraOf(id).authors; authors != nil {
		n -= int(r.body - r.author)
		for _, a := range authors {
			n += len(a)
		}
	}
	return sizeKB(n)
}

// inLanguage reports whether the document matches the query language: an
// unspecified document language matches everything.
func (ix *Index) inLanguage(id int, tag lang.Tag) bool {
	langs := ix.extraOf(id).languages
	return tag.IsZero() || len(langs) == 0 || slices.ContainsFunc(langs, func(t lang.Tag) bool { return t.Matches(tag) })
}

// document rebuilds the stored document, its strings views of the index's
// text.
func (ix *Index) document(id int) *Document {
	r, x := &ix.recs[id], ix.extraOf(id)
	d := &Document{
		Linkage: r.linkage(), LinkageType: x.linkageType, Title: r.field(attr.FieldTitle), Body: r.field(attr.FieldBodyOfText),
		Date: ix.date(id), Languages: slices.Clone(x.languages), CrossRefs: slices.Clone(x.crossRefs), Authors: slices.Clone(x.authors),
	}
	if a := r.field(attr.FieldAuthor); d.Authors == nil && a != "" {
		d.Authors = []string{a}
	}
	return d
}

// CompareFold orders strings as strings.Compare orders their
// strings.ToLower folds, without making them: rune by rune, an invalid
// byte reading as U+FFFD, which is what ToLower makes of it. UTF-8 orders
// encodings as it orders code points, so comparing folded runes compares
// the folds' bytes.
func CompareFold(a, b string) int {
	for a != "" && b != "" {
		if ca, cb := a[0], b[0]; ca|cb < utf8.RuneSelf {
			if ca, cb = asciiLower(ca), asciiLower(cb); ca != cb {
				return cmp.Compare(ca, cb)
			}
			a, b = a[1:], b[1:]
			continue
		}
		ra, na := utf8.DecodeRuneInString(a)
		rb, nb := utf8.DecodeRuneInString(b)
		if ra, rb = unicode.ToLower(ra), unicode.ToLower(rb); ra != rb {
			return cmp.Compare(ra, rb)
		}
		a, b = a[na:], b[nb:]
	}
	return cmp.Compare(len(a), len(b))
}

func asciiLower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
