package query

import (
	"fmt"
	"strconv"
	"strings"

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

// String renders the key as "field a" or "field d".
func (k SortKey) String() string {
	dir := "d"
	if k.Ascending {
		dir = "a"
	}
	return string(k.Field) + " " + dir
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
func New() *Query {
	return &Query{
		DropStopWords:   true,
		DefaultAttrSet:  attr.SetBasic1,
		DefaultLanguage: lang.EnglishUS,
		AnswerFields:    []attr.Field{attr.FieldTitle, attr.FieldLinkage},
		SortBy:          []SortKey{{Field: ScoreSortField}},
		MaxResults:      DefaultMaxResults,
	}
}

// EffectiveMaxResults returns MaxResults with the default applied.
func (q *Query) EffectiveMaxResults() int {
	if q.MaxResults <= 0 {
		return DefaultMaxResults
	}
	return q.MaxResults
}

// EffectiveSort returns SortBy, defaulting to score descending.
func (q *Query) EffectiveSort() []SortKey {
	if len(q.SortBy) == 0 {
		return []SortKey{{Field: ScoreSortField}}
	}
	return q.SortBy
}

// EffectiveAnswerFields returns the answer fields with linkage guaranteed
// present, since linkage is always returned.
func (q *Query) EffectiveAnswerFields() []attr.Field {
	fields := q.AnswerFields
	if len(fields) == 0 {
		fields = []attr.Field{attr.FieldTitle}
	}
	out := make([]attr.Field, 0, len(fields)+1)
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

// Clone returns a deep-enough copy: expressions are shared (they are
// immutable once parsed), slices are copied.
func (q *Query) Clone() *Query {
	c := *q
	c.Sources = append([]string(nil), q.Sources...)
	c.AnswerFields = append([]attr.Field(nil), q.AnswerFields...)
	c.SortBy = append([]SortKey(nil), q.SortBy...)
	return &c
}

// ToSOIF encodes the query as an @SQuery SOIF object in the layout of the
// paper's Example 6.
func (q *Query) ToSOIF() (*soif.Object, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	o := &soif.Object{Type: SQueryType, Attrs: make([]soif.Attribute, 0, 11)}
	o.Add("Version", Version)
	if q.Filter != nil {
		o.Add("FilterExpression", q.Filter.String())
	}
	if q.Ranking != nil {
		o.Add("RankingExpression", q.Ranking.String())
	}
	o.Add("DropStopWords", boolTF(q.DropStopWords))
	if q.DefaultAttrSet != "" {
		o.Add("DefaultAttributeSet", string(q.DefaultAttrSet))
	}
	if !q.DefaultLanguage.IsZero() {
		o.Add("DefaultLanguage", q.DefaultLanguage.String())
	}
	if len(q.Sources) > 0 {
		o.Add("Sources", strings.Join(q.Sources, " "))
	}
	if len(q.AnswerFields) > 0 {
		names := make([]string, len(q.AnswerFields))
		for i, f := range q.AnswerFields {
			names[i] = string(attr.Normalize(f))
		}
		o.Add("AnswerFields", strings.Join(names, " "))
	}
	if len(q.SortBy) > 0 {
		keys := make([]string, len(q.SortBy))
		for i, k := range q.SortBy {
			keys[i] = k.String()
		}
		o.Add("SortByFields", strings.Join(keys, " "))
	}
	if q.MinScore != 0 {
		o.Add("MinDocumentScore", strconv.FormatFloat(q.MinScore, 'g', -1, 64))
	}
	if q.MaxResults != 0 {
		o.Add("MaxNumberDocuments", strconv.Itoa(q.MaxResults))
	}
	return o, nil
}

// FromSOIF decodes an @SQuery object. Missing attributes take the
// specification defaults.
func FromSOIF(o *soif.Object) (*Query, error) {
	if !strings.EqualFold(o.Type, SQueryType) {
		return nil, fmt.Errorf("query: expected @%s object, found @%s", SQueryType, o.Type)
	}
	q := New()
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
		if q.DropStopWords, err = parseTF(v); err != nil {
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
		names := strings.Fields(v)
		q.AnswerFields = make([]attr.Field, 0, len(names))
		for _, name := range names {
			q.AnswerFields = append(q.AnswerFields, attr.Normalize(attr.Field(name)))
		}
	}
	if v, ok := o.Get("SortByFields"); ok {
		if q.SortBy, err = parseSortKeys(v); err != nil {
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

// Marshal encodes the query to SOIF bytes.
func (q *Query) Marshal() ([]byte, error) {
	o, err := q.ToSOIF()
	if err != nil {
		return nil, err
	}
	return soif.Marshal(o)
}

func parseSortKeys(v string) ([]SortKey, error) {
	fields := strings.Fields(v)
	if len(fields)%2 != 0 {
		return nil, fmt.Errorf("query: SortByFields %q must be field/direction pairs", v)
	}
	keys := make([]SortKey, 0, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		k := SortKey{Field: attr.Normalize(attr.Field(fields[i]))}
		switch strings.ToLower(fields[i+1]) {
		case "a", "asc", "ascending":
			k.Ascending = true
		case "d", "desc", "descending":
		default:
			return nil, fmt.Errorf("query: sort direction %q must be a or d", fields[i+1])
		}
		keys = append(keys, k)
	}
	return keys, nil
}

func boolTF(b bool) string {
	if b {
		return "T"
	}
	return "F"
}

func parseTF(v string) (bool, error) {
	switch strings.ToUpper(strings.TrimSpace(v)) {
	case "T", "TRUE":
		return true, nil
	case "F", "FALSE":
		return false, nil
	}
	return false, fmt.Errorf("expected T or F, found %q", v)
}
