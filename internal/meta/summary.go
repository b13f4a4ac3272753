package meta

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/query"
	"starts/internal/soif"
)

// SummaryType is the SOIF template type of a content summary.
const SummaryType = "SContentSummary"

// TermInfo is one vocabulary entry of a content summary: a word with its
// total number of postings (occurrences) and its document frequency in the
// source.
type TermInfo struct {
	Term     string
	Postings int
	DocFreq  int
}

// SummaryGroup is the vocabulary of one (field, language) slice of the
// source, as in the paper's Example 11 where English and Spanish title
// words form separate groups.
type SummaryGroup struct {
	Field    attr.Field
	Language lang.Tag
	Terms    []TermInfo
}

// ContentSummary is the automatically generated partial description of a
// source's contents that metasearchers harvest to decide which sources are
// promising for a query. The four flag bits describe how the listed words
// were processed, so that a metasearcher can push query terms through the
// same pipeline before probing the summary.
type ContentSummary struct {
	// Stemming reports whether the listed words are stemmed. Preferably
	// not.
	Stemming bool
	// StopWordsIncluded reports whether stop words appear in the list.
	// Preferably yes.
	StopWordsIncluded bool
	// CaseSensitive reports whether the words are case sensitive.
	CaseSensitive bool
	// FieldsQualified reports whether words carry the field they occurred
	// in. Preferably yes.
	FieldsQualified bool
	// NumDocs is the total number of documents in the source.
	NumDocs int
	// Groups hold the per-(field, language) vocabularies.
	Groups []SummaryGroup
}

// Lookup finds the statistics for term under the given field and language.
// When the summary is not field-qualified, the field argument is ignored
// and the single unqualified group is probed. A zero language matches any
// group language.
func (c *ContentSummary) Lookup(field attr.Field, tag lang.Tag, term string) (TermInfo, bool) {
	field = attr.Normalize(field)
	for i := range c.Groups {
		g := &c.Groups[i]
		if c.FieldsQualified && field != attr.FieldAny && attr.Normalize(g.Field) != field {
			continue
		}
		if !g.Language.Matches(tag) {
			continue
		}
		if ti, ok := g.find(term, c.CaseSensitive); ok {
			return ti, true
		}
	}
	return TermInfo{}, false
}

// DocFreq sums the document frequency of term across all groups matching
// the field and language, the statistic GlOSS-style source selection uses.
// The sum over fields may overcount documents containing the term in
// several fields; it is an upper bound, which is what selection needs.
func (c *ContentSummary) DocFreq(field attr.Field, tag lang.Tag, term string) int {
	field = attr.Normalize(field)
	total := 0
	for i := range c.Groups {
		g := &c.Groups[i]
		if c.FieldsQualified && field != attr.FieldAny && attr.Normalize(g.Field) != field {
			continue
		}
		if !g.Language.Matches(tag) {
			continue
		}
		if ti, ok := g.find(term, c.CaseSensitive); ok {
			total += ti.DocFreq
		}
	}
	return total
}

func (g *SummaryGroup) find(term string, caseSensitive bool) (TermInfo, bool) {
	// Groups keep terms sorted; binary search on the exact spelling first.
	i := sort.Search(len(g.Terms), func(i int) bool { return g.Terms[i].Term >= term })
	if i < len(g.Terms) && g.Terms[i].Term == term {
		return g.Terms[i], true
	}
	if !caseSensitive {
		lower := strings.ToLower(term)
		i := sort.Search(len(g.Terms), func(i int) bool { return g.Terms[i].Term >= lower })
		if i < len(g.Terms) && g.Terms[i].Term == lower {
			return g.Terms[i], true
		}
	}
	return TermInfo{}, false
}

// SortTerms sorts every group's vocabulary, which Lookup requires.
func (c *ContentSummary) SortTerms() {
	for i := range c.Groups {
		g := &c.Groups[i]
		sort.Slice(g.Terms, func(a, b int) bool { return g.Terms[a].Term < g.Terms[b].Term })
	}
}

// TotalTerms returns the number of vocabulary entries across all groups.
func (c *ContentSummary) TotalTerms() int {
	n := 0
	for i := range c.Groups {
		n += len(c.Groups[i].Terms)
	}
	return n
}

// ToSOIF encodes the summary as an @SContentSummary object in the layout
// of the paper's Example 11: the flag bits, NumDocs, then repeated
// Field/Language/TermDocFreq attribute groups.
func (c *ContentSummary) ToSOIF() *soif.Object {
	o := soif.New(SummaryType)
	o.Add("Version", query.Version)
	o.Add("Stemming", query.TF(c.Stemming))
	o.Add("StopWords", query.TF(c.StopWordsIncluded))
	o.Add("CaseSensitive", query.TF(c.CaseSensitive))
	o.Add("Fields", query.TF(c.FieldsQualified))
	o.Add("NumDocs", strconv.Itoa(c.NumDocs))
	for i := range c.Groups {
		g := &c.Groups[i]
		if g.Field != "" {
			o.Add("Field", string(attr.Normalize(g.Field)))
		}
		if !g.Language.IsZero() {
			o.Add("Language", g.Language.String())
		}
		lines := make([]string, len(g.Terms))
		for j, ti := range g.Terms {
			lines[j] = fmt.Sprintf("%s %d %d", lang.Quote(ti.Term), ti.Postings, ti.DocFreq)
		}
		o.Add("TermDocFreq", strings.Join(lines, "\n"))
	}
	return o
}

// Marshal encodes the summary to SOIF bytes.
func (c *ContentSummary) Marshal() ([]byte, error) {
	return soif.Marshal(c.ToSOIF())
}

// ParseSummary decodes an @SContentSummary object from SOIF bytes.
func ParseSummary(data []byte) (*ContentSummary, error) {
	o, err := soif.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return SummaryFromSOIF(o)
}

// SummaryFromSOIF decodes a content summary from a SOIF object. The
// repeated Field/Language/TermDocFreq attributes are grouped by order:
// each TermDocFreq closes the group opened by the preceding Field and/or
// Language attributes.
func SummaryFromSOIF(o *soif.Object) (*ContentSummary, error) {
	if !strings.EqualFold(o.Type, SummaryType) {
		return nil, fmt.Errorf("meta: expected @%s object, found @%s", SummaryType, o.Type)
	}
	c := &ContentSummary{}
	var err error
	var cur SummaryGroup
	for _, a := range o.Attrs {
		switch strings.ToLower(a.Name) {
		case "version":
		case "stemming":
			if c.Stemming, err = query.ParseTF(a.Value); err != nil {
				return nil, fmt.Errorf("meta: Stemming: %w", err)
			}
		case "stopwords":
			if c.StopWordsIncluded, err = query.ParseTF(a.Value); err != nil {
				return nil, fmt.Errorf("meta: StopWords: %w", err)
			}
		case "casesensitive":
			if c.CaseSensitive, err = query.ParseTF(a.Value); err != nil {
				return nil, fmt.Errorf("meta: CaseSensitive: %w", err)
			}
		case "fields":
			if c.FieldsQualified, err = query.ParseTF(a.Value); err != nil {
				return nil, fmt.Errorf("meta: Fields: %w", err)
			}
		case "numdocs":
			if c.NumDocs, err = count(strings.TrimSpace(a.Value)); err != nil {
				return nil, fmt.Errorf("meta: NumDocs %q: %w", a.Value, err)
			}
		case "field":
			cur.Field = attr.Normalize(attr.Field(strings.TrimSpace(a.Value)))
		case "language":
			if cur.Language, err = lang.ParseTag(strings.TrimSpace(a.Value)); err != nil {
				return nil, fmt.Errorf("meta: group language: %w", err)
			}
		case "termdocfreq":
			g := cur
			if g.Terms, err = parseTermInfos(a.Value); err != nil {
				return nil, err
			}
			c.Groups = append(c.Groups, g)
			cur = SummaryGroup{}
		default:
			return nil, fmt.Errorf("meta: unknown content-summary attribute %q", a.Name)
		}
	}
	c.SortTerms()
	return c, nil
}

// parseTermInfos decodes `"algorithm" 100 53 "analysis" 50 23` sequences.
func parseTermInfos(v string) ([]TermInfo, error) {
	var out []TermInfo
	rest := v
	for {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return out, nil
		}
		ls, after, err := lang.ScanLString(rest)
		if err != nil {
			return nil, fmt.Errorf("meta: TermDocFreq term: %w", err)
		}
		var ti TermInfo
		ti.Term = ls.Text
		var tok string
		if tok, after = nextTok(after); tok == "" {
			return nil, fmt.Errorf("meta: TermDocFreq entry %q is missing its postings count", ti.Term)
		}
		if ti.Postings, err = count(tok); err != nil {
			return nil, fmt.Errorf("meta: TermDocFreq postings %q: %w", tok, err)
		}
		if tok, after = nextTok(after); tok == "" {
			return nil, fmt.Errorf("meta: TermDocFreq entry %q is missing its document frequency", ti.Term)
		}
		if ti.DocFreq, err = count(tok); err != nil {
			return nil, fmt.Errorf("meta: TermDocFreq docfreq %q: %w", tok, err)
		}
		out = append(out, ti)
		rest = after
	}
}

// count parses a summary's document or postings count, which a negative
// number would carry into every N and df a metasearcher sums from it.
func count(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n < 0 {
		err = errors.New("negative count")
	}
	return n, err
}

func nextTok(s string) (tok, rest string) {
	s = strings.TrimLeft(s, " \t\r\n")
	i := strings.IndexAny(s, " \t\r\n")
	if i < 0 {
		return s, ""
	}
	return s[:i], s[i:]
}
