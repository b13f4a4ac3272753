// Package index implements the search-engine substrate of a STARTS
// source: a positional, fielded, in-memory inverted index over text
// documents, with the auxiliary vocabularies (stems, soundex codes, case
// folds) needed to honor the Basic-1 term modifiers, filter-expression
// evaluation (and/or/and-not and word-distance proximity), and the
// collection statistics (document frequencies, token counts) that both
// ranking and content summaries are built from.
package index

import (
	"fmt"
	"math"
	"strings"
	"time"

	"starts/internal/attr"
	"starts/internal/lang"
)

// Document is the indexable unit: a flat text document with the Basic-1
// fields. STARTS deliberately assumes flat documents — no nesting, no
// non-textual data.
type Document struct {
	// Linkage is the document URL, the document's identity across sources.
	Linkage string
	// LinkageType is the document MIME type.
	LinkageType string
	// Title, Authors and Body are the searchable text fields.
	Title   string
	Authors []string
	Body    string
	// Date is the last-modified timestamp.
	Date time.Time
	// Languages lists the languages the document is written in; empty
	// means unspecified (treated as matching any query language).
	Languages []lang.Tag
	// CrossRefs lists the URLs mentioned in the document.
	CrossRefs []string
}

// FieldText returns the document's text for one field: a date as
// YYYY-MM-DD, in UTC.
func (d *Document) FieldText(f attr.Field) string {
	switch attr.Normalize(f) {
	case attr.FieldTitle:
		return d.Title
	case attr.FieldAuthor:
		return strings.Join(d.Authors, ", ")
	case attr.FieldBodyOfText:
		return d.Body
	case attr.FieldCrossReferenceLinkage:
		return strings.Join(d.CrossRefs, " ")
	case attr.FieldLinkage:
		return d.Linkage
	case attr.FieldLinkageType:
		return d.LinkageType
	case attr.FieldLanguages:
		tags := make([]string, len(d.Languages))
		for i, t := range d.Languages {
			tags[i] = t.String()
		}
		return strings.Join(tags, " ")
	case attr.FieldDateLastModified:
		if d.Date.IsZero() {
			return ""
		}
		return d.Date.UTC().Format("2006-01-02")
	default:
		return ""
	}
}

// SizeKB returns the document size in KBytes (at least 1 for a non-empty
// document), the DocSize statistic of query results.
func (d *Document) SizeKB() int {
	n := len(d.Title) + len(d.Body)
	for _, a := range d.Authors {
		n += len(a)
	}
	return sizeKB(n)
}

// sizeKB converts a byte count to SizeKB's KBytes.
func sizeKB(n int) int {
	if n == 0 {
		return 0
	}
	return max(n/1024, 1)
}

// Validate checks the minimal invariants an indexable document must hold:
// a linkage, and text (linkage, title, authors and body) the index's
// 32-bit offsets reach across.
func (d *Document) Validate() error {
	if d.Linkage == "" {
		return fmt.Errorf("index: document has no linkage (URL); linkage is the required document identity")
	}
	if n := textLen(d); n > math.MaxUint32 {
		return fmt.Errorf("index: document %q holds %d bytes of text, more than 2^32-1", d.Linkage, n)
	}
	return nil
}

// TextFields are the fields the index builds postings for; "any" queries
// probe all of them.
var TextFields = []attr.Field{attr.FieldTitle, attr.FieldAuthor, attr.FieldBodyOfText}
