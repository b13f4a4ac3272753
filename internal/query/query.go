package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/soif"
)

// Version is the protocol version string carried by every STARTS object.
const Version = "STARTS 1.0"

// SQueryType is the SOIF template type of a query object.
const SQueryType = "SQuery"

// ScoreSortField is the pseudo-field naming the document score in sort
// specifications; the default sort is by score, descending.
const ScoreSortField attr.Field = "score"

// SortKey orders query results by a field, ascending or descending.
type SortKey struct {
	Field     attr.Field
	Ascending bool
}

// Query is a complete STARTS query: a filter expression (the Boolean
// component), a ranking expression (the vector-space component), and the
// further result specification of Section 4.1.2. Either expression may be
// nil: with no filter every document qualifies; with no ranking the result
// is the unranked filter match set.
type Query struct {
	// Filter must be satisfied by every document in the result.
	Filter Expr
	// Ranking imposes the order over qualifying documents.
	Ranking Expr

	// DropStopWords asks the source to delete stop words from the query
	// before processing. Whether a source can turn stop words OFF is
	// advertised in its TurnOffStopWords metadata.
	DropStopWords bool

	// DefaultAttrSet is the attribute set unqualified fields belong to.
	DefaultAttrSet attr.SetName
	// DefaultLanguage applies to l-strings with no language of their own.
	DefaultLanguage lang.Tag

	// Sources lists additional sources at the same resource where the
	// query should also be evaluated, enabling resource-side duplicate
	// elimination.
	Sources []string

	// AnswerFields are returned for each result document, in addition to
	// linkage, which is always returned. Default: title, linkage.
	AnswerFields []attr.Field
	// SortBy orders the results. Default: score, descending.
	SortBy []SortKey
	// MinScore is the minimum acceptable document score.
	MinScore float64
	// MaxResults is the maximum acceptable number of documents; zero means
	// the source default (DefaultMaxResults).
	MaxResults int
}

// DefaultMaxResults is applied when a query does not bound its result
// size, so that unconstrained queries cannot pull whole collections.
const DefaultMaxResults = 20

// New returns a query with the specification defaults: drop stop words,
// Basic-1 attributes, en-US, answer fields title+linkage, sorted by score
// descending.
func New() *Query { return new(Query).defaults(make([]attr.Field, 2), make([]SortKey, 1)) }

// defaults sets q to New's query, its answer fields and sort key written
// into fields and keys, and returns it.
func (q *Query) defaults(fields []attr.Field, keys []SortKey) *Query {
	*q = Query{
		DropStopWords:   true,
		DefaultAttrSet:  attr.SetBasic1,
		DefaultLanguage: lang.EnglishUS,
		AnswerFields:    append(fields[:0:2], attr.FieldTitle, attr.FieldLinkage),
		SortBy:          append(keys[:0:1], SortKey{Field: ScoreSortField}),
		MaxResults:      DefaultMaxResults,
	}
	return q
}

// A block is a decoded query and, in the same allocation, room for two
// answer fields and one sort key: the defaults, and what most queries
// name. The query's slices are capped at their length, so an append by
// their holder copies them instead of writing into the block. New does
// not use one: a holder of a query's answer fields alone would keep the
// whole block alive.
type block struct {
	q      Query
	fields [2]attr.Field
	keys   [1]SortKey
}

// EffectiveMaxResults returns MaxResults with the default applied.
func (q *Query) EffectiveMaxResults() int {
	if q.MaxResults <= 0 {
		return DefaultMaxResults
	}
	return q.MaxResults
}

// scoreDescending is the default sort, shared by every query that sets
// none.
var scoreDescending = []SortKey{{Field: ScoreSortField}}

// EffectiveSort returns SortBy, defaulting to score descending. The
// caller must not modify the keys.
func (q *Query) EffectiveSort() []SortKey {
	if len(q.SortBy) == 0 {
		return scoreDescending[:1:1]
	}
	return q.SortBy
}

// AppendAnswerFields appends the answer fields to out, with linkage
// guaranteed present, since linkage is always returned.
func (q *Query) AppendAnswerFields(out []attr.Field) []attr.Field {
	fields := q.AnswerFields
	if len(fields) == 0 {
		fields = []attr.Field{attr.FieldTitle}
	}
	hasLinkage := false
	for _, f := range fields {
		f = attr.Normalize(f)
		if f == attr.FieldLinkage {
			hasLinkage = true
		}
		out = append(out, f)
	}
	if !hasLinkage {
		out = append(out, attr.FieldLinkage)
	}
	return out
}

// Validate checks the query's internal consistency.
func (q *Query) Validate() error {
	if q.Filter == nil && q.Ranking == nil {
		return fmt.Errorf("query: at least one of filter and ranking expression is required")
	}
	if q.Filter != nil {
		if err := ValidateFilter(q.Filter); err != nil {
			return err
		}
	}
	if q.Ranking != nil {
		if err := ValidateRanking(q.Ranking); err != nil {
			return err
		}
	}
	if q.MinScore < 0 {
		return fmt.Errorf("query: negative MinDocumentScore %g", q.MinScore)
	}
	if q.MaxResults < 0 {
		return fmt.Errorf("query: negative MaxNumberDocuments %d", q.MaxResults)
	}
	return nil
}

// AppendSOIF appends the query's @SQuery object to dst, in the layout of
// the paper's Example 6. It fails, returning nil, only on a query that
// does not validate.
func (q *Query) AppendSOIF(dst []byte) ([]byte, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	var buf [printBuf]byte // each value is printed here first; a longer one spills to the heap
	dst = soif.AppendAttr(soif.AppendType(dst, SQueryType), "Version", Version)
	if q.Filter != nil {
		dst = soif.AppendAttr(dst, "FilterExpression", AppendExpr(buf[:0], q.Filter))
	}
	if q.Ranking != nil {
		dst = soif.AppendAttr(dst, "RankingExpression", AppendExpr(buf[:0], q.Ranking))
	}
	dst = soif.AppendAttr(dst, "DropStopWords", TF(q.DropStopWords))
	if q.DefaultAttrSet != "" {
		dst = soif.AppendAttr(dst, "DefaultAttributeSet", string(q.DefaultAttrSet))
	}
	if !q.DefaultLanguage.IsZero() {
		dst = soif.AppendAttr(dst, "DefaultLanguage", q.DefaultLanguage.Append(buf[:0]))
	}
	if len(q.Sources) > 0 {
		dst = soif.AppendAttr(dst, "Sources", strings.Join(q.Sources, " "))
	}
	if len(q.AnswerFields) > 0 {
		line := buf[:0]
		for _, f := range q.AnswerFields {
			line = append(append(line, attr.Normalize(f)...), ' ')
		}
		dst = soif.AppendAttr(dst, "AnswerFields", line[:len(line)-1])
	}
	if len(q.SortBy) > 0 {
		line := buf[:0]
		for _, k := range q.SortBy {
			if line = append(append(line, k.Field...), " d "...); k.Ascending {
				line[len(line)-2] = 'a'
			}
		}
		dst = soif.AppendAttr(dst, "SortByFields", line[:len(line)-1])
	}
	if q.MinScore != 0 {
		dst = soif.AppendAttr(dst, "MinDocumentScore", strconv.AppendFloat(buf[:0], q.MinScore, 'g', -1, 64))
	}
	if q.MaxResults != 0 {
		dst = soif.AppendAttr(dst, "MaxNumberDocuments", strconv.AppendInt(buf[:0], int64(q.MaxResults), 10))
	}
	return soif.AppendEnd(dst), nil
}

// ToSOIF is the query's @SQuery object: AppendSOIF's text, decoded.
func (q *Query) ToSOIF() (*soif.Object, error) {
	data, err := q.AppendSOIF(nil)
	if err != nil {
		return nil, err
	}
	return soif.Unmarshal(data)
}

// FromSOIF decodes an @SQuery object. Missing attributes take the
// specification defaults.
func FromSOIF(o *soif.Object) (*Query, error) {
	if !strings.EqualFold(o.Type, SQueryType) {
		return nil, fmt.Errorf("query: expected @%s object, found @%s", SQueryType, o.Type)
	}
	d := new(block)
	q := d.q.defaults(d.fields[:], d.keys[:])
	var err error
	if v, ok := o.Get("FilterExpression"); ok {
		if q.Filter, err = ParseFilter(v); err != nil {
			return nil, err
		}
	}
	if v, ok := o.Get("RankingExpression"); ok {
		if q.Ranking, err = ParseRanking(v); err != nil {
			return nil, err
		}
	}
	if v, ok := o.Get("DropStopWords"); ok {
		if q.DropStopWords, err = ParseTF(v); err != nil {
			return nil, fmt.Errorf("query: DropStopWords: %w", err)
		}
	}
	if v, ok := o.Get("DefaultAttributeSet"); ok {
		q.DefaultAttrSet = attr.SetName(strings.ToLower(v))
	}
	if v, ok := o.Get("DefaultLanguage"); ok {
		if q.DefaultLanguage, err = lang.ParseTag(v); err != nil {
			return nil, fmt.Errorf("query: DefaultLanguage: %w", err)
		}
	}
	if v, ok := o.Get("Sources"); ok {
		q.Sources = strings.Fields(v)
	}
	if v, ok := o.Get("AnswerFields"); ok {
		q.AnswerFields = d.fields[:0]
		for name, rest := nextField(v); name != ""; name, rest = nextField(rest) {
			q.AnswerFields = append(q.AnswerFields, attr.Normalize(attr.Field(name)))
		}
		q.AnswerFields = slices.Clip(q.AnswerFields)
	}
	if v, ok := o.Get("SortByFields"); ok {
		if q.SortBy, err = appendSortKeys(d.keys[:0], v); err != nil {
			return nil, err
		}
	}
	if v, ok := o.Get("MinDocumentScore"); ok {
		if q.MinScore, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
			return nil, fmt.Errorf("query: MinDocumentScore %q: %w", v, err)
		}
	}
	if v, ok := o.Get("MaxNumberDocuments"); ok {
		if q.MaxResults, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
			return nil, fmt.Errorf("query: MaxNumberDocuments %q: %w", v, err)
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// Parse decodes a query from SOIF bytes.
func Parse(data []byte) (*Query, error) {
	o, err := soif.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return FromSOIF(o)
}

// Marshal encodes the query to SOIF bytes: one allocation for most queries.
func (q *Query) Marshal() ([]byte, error) { return q.AppendSOIF(make([]byte, 0, 512)) }

// appendSortKeys appends the field/direction pairs of a SortByFields value
// to keys and returns them capped at their length.
func appendSortKeys(keys []SortKey, v string) ([]SortKey, error) {
	n := 0
	for w, rest := nextField(v); w != ""; w, rest = nextField(rest) {
		n++
	}
	if n%2 != 0 {
		return nil, fmt.Errorf("query: SortByFields %q must be field/direction pairs", v)
	}
	var field string
	for w, rest := nextField(v); w != ""; w, rest = nextField(rest) {
		if field == "" {
			field = w
			continue
		}
		k := SortKey{Field: attr.Normalize(attr.Field(field))}
		switch strings.ToLower(w) {
		case "a", "asc", "ascending":
			k.Ascending = true
		case "d", "desc", "descending":
		default:
			return nil, fmt.Errorf("query: sort direction %q must be a or d", w)
		}
		keys, field = append(keys, k), ""
	}
	return slices.Clip(keys), nil
}

// nextField splits the first of s's words, as strings.Fields splits them,
// off s; word is empty when s has none left.
func nextField(s string) (word, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// TF prints a STARTS Boolean attribute value: T or F.
func TF(b bool) string {
	if b {
		return "T"
	}
	return "F"
}

// ParseTF reads what TF prints, or TRUE or FALSE, in any case.
func ParseTF(v string) (bool, error) {
	switch strings.ToUpper(strings.TrimSpace(v)) {
	case "T", "TRUE":
		return true, nil
	case "F", "FALSE":
		return false, nil
	}
	return false, fmt.Errorf("expected T or F, found %q", v)
}
