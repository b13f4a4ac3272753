// Package meta implements the STARTS source metadata of Section 4.3: the
// SMetaAttributes object (the MBasic-1 attribute values a source exports so
// metasearchers can rewrite queries for it and interpret its scores), the
// SContentSummary object (the automatically generated, orders-of-magnitude
// smaller description of a source's contents used for source selection),
// and the SResource object (a resource's list of sources and where their
// metadata lives).
package meta

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"starts/internal/attr"
	"starts/internal/lang"
	"starts/internal/query"
	"starts/internal/soif"
	"starts/internal/text"
)

// MetaType is the SOIF template type of a source-metadata object.
const MetaType = "SMetaAttributes"

// QueryParts says which query-language components a source supports.
type QueryParts string

// QueryPartsSupported values: ranking expressions only, filter expressions
// only, or both.
const (
	PartsRanking QueryParts = "R"
	PartsFilter  QueryParts = "F"
	PartsBoth    QueryParts = "RF"
)

// SupportsFilter reports whether filter expressions are accepted.
func (p QueryParts) SupportsFilter() bool { return p == PartsFilter || p == PartsBoth }

// SupportsRanking reports whether ranking expressions are accepted.
func (p QueryParts) SupportsRanking() bool { return p == PartsRanking || p == PartsBoth }

// FieldSupport declares one searchable field and, optionally, the
// languages used in that field at the source.
type FieldSupport struct {
	Set       attr.SetName // attribute set the field belongs to (basic-1)
	Field     attr.Field
	Languages []lang.Tag
}

// String renders the entry in Example 10 syntax: [basic-1 author], with
// any languages appended inside the brackets.
func (f FieldSupport) String() string {
	parts := []string{string(setOrBasic(f.Set)), string(attr.Normalize(f.Field))}
	for _, t := range f.Languages {
		parts = append(parts, t.String())
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// ModifierSupport declares one supported modifier and, optionally, the
// languages it is supported for (stemming is language-dependent).
type ModifierSupport struct {
	Set       attr.SetName
	Mod       attr.Modifier
	Languages []lang.Tag
}

// String renders the entry in Example 10 syntax: {basic-1 phonetic}.
func (m ModifierSupport) String() string {
	parts := []string{string(setOrBasic(m.Set)), m.Mod.String()}
	for _, t := range m.Languages {
		parts = append(parts, t.String())
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Combination declares one legal field-modifier pairing. A source may
// support the author field and the stem modifier separately and still
// reject stemming author names; only listed combinations are legal.
type Combination struct {
	Field FieldSupport
	Mod   ModifierSupport
}

// String renders the pair in Example 10 syntax:
// ([basic-1 author] {basic-1 phonetic}).
func (c Combination) String() string {
	return "(" + c.Field.String() + " " + c.Mod.String() + ")"
}

// TokenizerUse names the tokenizer a source applies to one language, as in
// (Acme-1 en-US).
type TokenizerUse struct {
	ID  string
	Tag lang.Tag
}

// String renders the entry in TokenizerIDList syntax.
func (t TokenizerUse) String() string {
	return "(" + t.ID + " " + t.Tag.String() + ")"
}

// SourceMeta is a source's complete MBasic-1 metadata. It is read-only
// from the first capability question asked of it (SupportsField,
// SupportsModifier, AllowsCombination, StopList): the answers are compiled
// once and kept on the object, so a source whose metadata changed is a new
// SourceMeta — which is what a harvest produces — never an edited one.
type SourceMeta struct {
	SourceID string

	// FieldsSupported lists the optional fields searchable at the source,
	// beyond the required ones; required fields may also appear to carry
	// their language lists.
	FieldsSupported []FieldSupport
	// ModifiersSupported lists the supported modifiers.
	ModifiersSupported []ModifierSupport
	// Combinations lists the legal field-modifier pairings.
	Combinations []Combination
	// QueryParts says whether filter and/or ranking expressions are
	// accepted.
	QueryParts QueryParts

	// ScoreMin and ScoreMax bound the document scores the source produces
	// (possibly ±Inf); metasearchers use them to interpret raw scores.
	ScoreMin, ScoreMax float64
	// RankingAlgorithmID identifies the (possibly secret) ranking
	// algorithm; two sources sharing an ID rank identically given
	// identical collections.
	RankingAlgorithmID string
	// Tokenizers names the tokenizer used per language.
	Tokenizers []TokenizerUse
	// SampleDatabaseResults is the URL of the source's query results for
	// the calibration sample collection.
	SampleDatabaseResults string
	// StopWords is the source's stop-word list.
	StopWords []string
	// TurnOffStopWords says whether queries may disable stop-word
	// elimination.
	TurnOffStopWords bool

	// SourceLanguages lists the languages of the source's documents.
	SourceLanguages []lang.Tag
	// SourceName is the human-readable source name.
	SourceName string
	// Linkage is the URL where the source accepts queries.
	Linkage string
	// ContentSummaryLinkage is the URL of the source's content summary.
	ContentSummaryLinkage string
	// DateChanged and DateExpires bound the metadata's validity.
	DateChanged time.Time
	DateExpires time.Time
	// Abstract is a manually written content description.
	Abstract string
	// AccessConstraints describes any usage restrictions or charges.
	AccessConstraints string
	// Contact identifies the source administrator.
	Contact string

	caps atomic.Pointer[capabilities]
}

// capabilities is what query translation asks of the metadata once per
// term: the lists above as sets, field names normalized.
type capabilities struct {
	stop   *text.StopList
	fields map[attr.Field]bool // required fields included
	mods   map[attr.Modifier]bool
	combos map[fieldMod]bool
}

type fieldMod struct {
	field attr.Field
	mod   attr.Modifier
}

// compiled returns the capability sets, building them on first use.
// Concurrent first users may each build one; they are equal and one wins.
func (m *SourceMeta) compiled() *capabilities {
	if c := m.caps.Load(); c != nil {
		return c
	}
	c := &capabilities{
		stop:   text.NewStopList(m.SourceID+"-stopwords", m.StopWords),
		fields: make(map[attr.Field]bool, len(m.FieldsSupported)+4),
		mods:   make(map[attr.Modifier]bool, len(m.ModifiersSupported)),
		combos: make(map[fieldMod]bool, len(m.Combinations)),
	}
	for _, f := range attr.RequiredFields() {
		c.fields[f] = true
	}
	for _, fs := range m.FieldsSupported {
		c.fields[attr.Normalize(fs.Field)] = true
	}
	for _, ms := range m.ModifiersSupported {
		c.mods[ms.Mod] = true
	}
	for _, cb := range m.Combinations {
		c.combos[fieldMod{attr.Normalize(cb.Field.Field), cb.Mod.Mod}] = true
	}
	m.caps.CompareAndSwap(nil, c)
	return m.caps.Load()
}

// StopList returns the source's StopWords as a set.
func (m *SourceMeta) StopList() *text.StopList { return m.compiled().stop }

// dateFormat is the ISO date layout used by the specification examples.
const dateFormat = "2006-01-02"

// SupportsField reports whether the source recognizes the field: required
// Basic-1 fields always, optional fields only when listed.
func (m *SourceMeta) SupportsField(f attr.Field) bool {
	return m.compiled().fields[attr.Normalize(f)]
}

// SupportsModifier reports whether the source supports the modifier.
func (m *SourceMeta) SupportsModifier(mod attr.Modifier) bool { return m.compiled().mods[mod] }

// AllowsCombination reports whether applying mod to field is legal at the
// source. Per the specification, sources list legal combinations
// explicitly; a field-modifier pair both individually supported but not
// listed is illegal.
func (m *SourceMeta) AllowsCombination(f attr.Field, mod attr.Modifier) bool {
	return m.compiled().combos[fieldMod{attr.Normalize(f), mod}]
}

// ToSOIF encodes the metadata as an @SMetaAttributes object in the layout
// of the paper's Example 10.
func (m *SourceMeta) ToSOIF() *soif.Object {
	return m.ToSOIFAt(m.Linkage, m.ContentSummaryLinkage, m.SampleDatabaseResults)
}

// ToSOIFAt is ToSOIF with the three endpoint URLs replaced: how a server
// publishes a connection's metadata under its own routes.
func (m *SourceMeta) ToSOIFAt(linkage, summaryLinkage, sampleResults string) *soif.Object {
	o := soif.New(MetaType)
	o.Add("Version", query.Version)
	o.Add("SourceID", m.SourceID)
	if len(m.FieldsSupported) > 0 {
		o.Add("FieldsSupported", joinStringers(fieldStrs(m.FieldsSupported)))
	}
	if len(m.ModifiersSupported) > 0 {
		o.Add("ModifiersSupported", joinStringers(modStrs(m.ModifiersSupported)))
	}
	if len(m.Combinations) > 0 {
		parts := make([]string, len(m.Combinations))
		for i, c := range m.Combinations {
			parts[i] = c.String()
		}
		o.Add("FieldModifierCombinations", strings.Join(parts, " "))
	}
	if m.QueryParts != "" {
		o.Add("QueryPartsSupported", string(m.QueryParts))
	}
	o.Add("ScoreRange", formatScore(m.ScoreMin)+" "+formatScore(m.ScoreMax))
	o.Add("RankingAlgorithmID", m.RankingAlgorithmID)
	if len(m.Tokenizers) > 0 {
		parts := make([]string, len(m.Tokenizers))
		for i, t := range m.Tokenizers {
			parts[i] = t.String()
		}
		o.Add("TokenizerIDList", strings.Join(parts, " "))
	}
	if sampleResults != "" {
		o.Add("SampleDatabaseResults", sampleResults)
	}
	o.Add("StopWordList", strings.Join(m.StopWords, " "))
	o.Add("TurnOffStopWords", boolTF(m.TurnOffStopWords))
	o.Add("DefaultMetaAttributeSet", string(attr.SetMBasic1))
	if len(m.SourceLanguages) > 0 {
		tags := make([]string, len(m.SourceLanguages))
		for i, t := range m.SourceLanguages {
			tags[i] = t.String()
		}
		o.Add("source-languages", strings.Join(tags, " "))
	}
	if m.SourceName != "" {
		o.Add("source-name", m.SourceName)
	}
	o.Add("linkage", linkage)
	o.Add("content-summary-linkage", summaryLinkage)
	if !m.DateChanged.IsZero() {
		o.Add("date-changed", m.DateChanged.Format(dateFormat))
	}
	if !m.DateExpires.IsZero() {
		o.Add("date-expires", m.DateExpires.Format(dateFormat))
	}
	if m.Abstract != "" {
		o.Add("abstract", m.Abstract)
	}
	if m.AccessConstraints != "" {
		o.Add("access-constraints", m.AccessConstraints)
	}
	if m.Contact != "" {
		o.Add("contact", m.Contact)
	}
	return o
}

// Marshal encodes the metadata to SOIF bytes.
func (m *SourceMeta) Marshal() ([]byte, error) {
	return soif.Marshal(m.ToSOIF())
}

// ParseMeta decodes an @SMetaAttributes object from SOIF bytes.
func ParseMeta(data []byte) (*SourceMeta, error) {
	o, err := soif.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return MetaFromSOIF(o)
}

// MetaFromSOIF decodes source metadata from a SOIF object.
func MetaFromSOIF(o *soif.Object) (*SourceMeta, error) {
	if !strings.EqualFold(o.Type, MetaType) {
		return nil, fmt.Errorf("meta: expected @%s object, found @%s", MetaType, o.Type)
	}
	m := &SourceMeta{}
	var err error
	m.SourceID = o.GetDefault("SourceID", "")
	for _, v := range o.All("FieldsSupported") {
		fs, err := parseFieldSupports(v)
		if err != nil {
			return nil, err
		}
		m.FieldsSupported = append(m.FieldsSupported, fs...)
	}
	for _, v := range o.All("ModifiersSupported") {
		ms, err := parseModifierSupports(v)
		if err != nil {
			return nil, err
		}
		m.ModifiersSupported = append(m.ModifiersSupported, ms...)
	}
	for _, v := range o.All("FieldModifierCombinations") {
		cs, err := parseCombinations(v)
		if err != nil {
			return nil, err
		}
		m.Combinations = append(m.Combinations, cs...)
	}
	if v, ok := o.Get("QueryPartsSupported"); ok {
		switch qp := QueryParts(strings.ToUpper(strings.TrimSpace(v))); qp {
		case PartsRanking, PartsFilter, PartsBoth:
			m.QueryParts = qp
		default:
			return nil, fmt.Errorf("meta: QueryPartsSupported %q must be R, F or RF", v)
		}
	}
	if v, ok := o.Get("ScoreRange"); ok {
		if m.ScoreMin, m.ScoreMax, err = parseScoreRange(v); err != nil {
			return nil, err
		}
	}
	m.RankingAlgorithmID = o.GetDefault("RankingAlgorithmID", "")
	if v, ok := o.Get("TokenizerIDList"); ok {
		if m.Tokenizers, err = parseTokenizerList(v); err != nil {
			return nil, err
		}
	}
	m.SampleDatabaseResults = o.GetDefault("SampleDatabaseResults", "")
	if v, ok := o.Get("StopWordList"); ok && strings.TrimSpace(v) != "" {
		m.StopWords = strings.Fields(v)
	}
	if v, ok := o.Get("TurnOffStopWords"); ok {
		if m.TurnOffStopWords, err = parseTF(v); err != nil {
			return nil, fmt.Errorf("meta: TurnOffStopWords: %w", err)
		}
	}
	if v, ok := o.Get("source-languages"); ok {
		for _, s := range strings.Fields(v) {
			t, err := lang.ParseTag(s)
			if err != nil {
				return nil, fmt.Errorf("meta: source-languages: %w", err)
			}
			m.SourceLanguages = append(m.SourceLanguages, t)
		}
	}
	m.SourceName = o.GetDefault("source-name", "")
	m.Linkage = o.GetDefault("linkage", "")
	m.ContentSummaryLinkage = o.GetDefault("content-summary-linkage", "")
	if v, ok := o.Get("date-changed"); ok {
		if m.DateChanged, err = time.Parse(dateFormat, strings.TrimSpace(v)); err != nil {
			return nil, fmt.Errorf("meta: date-changed: %w", err)
		}
	}
	if v, ok := o.Get("date-expires"); ok {
		if m.DateExpires, err = time.Parse(dateFormat, strings.TrimSpace(v)); err != nil {
			return nil, fmt.Errorf("meta: date-expires: %w", err)
		}
	}
	m.Abstract = o.GetDefault("abstract", "")
	m.AccessConstraints = o.GetDefault("access-constraints", "")
	m.Contact = o.GetDefault("contact", "")
	return m, nil
}

// parseFieldSupports parses one or more [set field lang...] groups.
func parseFieldSupports(v string) ([]FieldSupport, error) {
	groups, err := bracketGroups(v, '[', ']')
	if err != nil {
		return nil, fmt.Errorf("meta: FieldsSupported: %w", err)
	}
	var out []FieldSupport
	for _, g := range groups {
		toks := strings.Fields(g)
		if len(toks) < 2 {
			return nil, fmt.Errorf("meta: FieldsSupported entry %q needs set and field", g)
		}
		fs := FieldSupport{Set: attr.SetName(strings.ToLower(toks[0])), Field: attr.Normalize(attr.Field(toks[1]))}
		for _, s := range toks[2:] {
			t, err := lang.ParseTag(s)
			if err != nil {
				return nil, fmt.Errorf("meta: FieldsSupported language: %w", err)
			}
			fs.Languages = append(fs.Languages, t)
		}
		out = append(out, fs)
	}
	return out, nil
}

// parseModifierSupports parses one or more {set modifier lang...} groups.
func parseModifierSupports(v string) ([]ModifierSupport, error) {
	groups, err := bracketGroups(v, '{', '}')
	if err != nil {
		return nil, fmt.Errorf("meta: ModifiersSupported: %w", err)
	}
	var out []ModifierSupport
	for _, g := range groups {
		toks := strings.Fields(g)
		if len(toks) < 2 {
			return nil, fmt.Errorf("meta: ModifiersSupported entry %q needs set and modifier", g)
		}
		ms := ModifierSupport{Set: attr.SetName(strings.ToLower(toks[0])), Mod: normalizeModifier(toks[1])}
		for _, s := range toks[2:] {
			t, err := lang.ParseTag(s)
			if err != nil {
				return nil, fmt.Errorf("meta: ModifiersSupported language: %w", err)
			}
			ms.Languages = append(ms.Languages, t)
		}
		out = append(out, ms)
	}
	return out, nil
}

// parseCombinations parses ([set field] {set mod}) pairs.
func parseCombinations(v string) ([]Combination, error) {
	var out []Combination
	rest := strings.TrimSpace(v)
	for rest != "" {
		if rest[0] != '(' {
			return nil, fmt.Errorf("meta: FieldModifierCombinations: expected '(' at %q", rest)
		}
		end := strings.IndexByte(rest, ')')
		if end < 0 {
			return nil, fmt.Errorf("meta: FieldModifierCombinations: unterminated pair in %q", rest)
		}
		pair := rest[1:end]
		rest = strings.TrimSpace(rest[end+1:])
		fss, err := parseFieldSupports(extractDelims(pair, '[', ']'))
		if err != nil || len(fss) != 1 {
			return nil, fmt.Errorf("meta: combination %q: bad field part (%v)", pair, err)
		}
		mss, err := parseModifierSupports(extractDelims(pair, '{', '}'))
		if err != nil || len(mss) != 1 {
			return nil, fmt.Errorf("meta: combination %q: bad modifier part (%v)", pair, err)
		}
		out = append(out, Combination{Field: fss[0], Mod: mss[0]})
	}
	return out, nil
}

// parseTokenizerList parses (ID tag) pairs.
func parseTokenizerList(v string) ([]TokenizerUse, error) {
	groups, err := bracketGroups(v, '(', ')')
	if err != nil {
		return nil, fmt.Errorf("meta: TokenizerIDList: %w", err)
	}
	var out []TokenizerUse
	for _, g := range groups {
		toks := strings.Fields(g)
		if len(toks) != 2 {
			return nil, fmt.Errorf("meta: TokenizerIDList entry %q needs ID and language", g)
		}
		t, err := lang.ParseTag(toks[1])
		if err != nil {
			return nil, fmt.Errorf("meta: TokenizerIDList language: %w", err)
		}
		out = append(out, TokenizerUse{ID: toks[0], Tag: t})
	}
	return out, nil
}

// bracketGroups splits "[a b] [c]" style values into their group bodies.
func bracketGroups(v string, open, close byte) ([]string, error) {
	var groups []string
	rest := strings.TrimSpace(v)
	for rest != "" {
		if rest[0] != open {
			return nil, fmt.Errorf("expected %q at %q", open, rest)
		}
		end := strings.IndexByte(rest, close)
		if end < 0 {
			return nil, fmt.Errorf("unterminated %q group in %q", open, rest)
		}
		groups = append(groups, rest[1:end])
		rest = strings.TrimSpace(rest[end+1:])
	}
	return groups, nil
}

// extractDelims returns the first delimited group of s including its
// delimiters, or "" when absent.
func extractDelims(s string, open, close byte) string {
	i := strings.IndexByte(s, open)
	if i < 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], close)
	if j < 0 {
		return ""
	}
	return s[i : i+j+1]
}

// normalizeModifier maps spelling variants (the paper's Example 10 says
// "phonetics" where the modifier table says "Phonetic") onto canonical
// modifier names.
func normalizeModifier(s string) attr.Modifier {
	s = strings.ToLower(s)
	if s == "phonetics" {
		return attr.ModPhonetic
	}
	return attr.Modifier(s)
}

func parseScoreRange(v string) (min, max float64, err error) {
	toks := strings.Fields(v)
	if len(toks) != 2 {
		return 0, 0, fmt.Errorf("meta: ScoreRange %q must have a minimum and a maximum", v)
	}
	if min, err = parseScore(toks[0]); err != nil {
		return 0, 0, err
	}
	if max, err = parseScore(toks[1]); err != nil {
		return 0, 0, err
	}
	if min > max {
		return 0, 0, fmt.Errorf("meta: ScoreRange %q has minimum above maximum", v)
	}
	return min, max, nil
}

// parseScore accepts plain floats and the ±Infinity spellings the
// specification allows.
func parseScore(s string) (float64, error) {
	switch strings.ToLower(s) {
	case "-infinity", "-inf":
		return math.Inf(-1), nil
	case "+infinity", "infinity", "+inf", "inf":
		return math.Inf(1), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("meta: score %q: %w", s, err)
	}
	return f, nil
}

func formatScore(f float64) string {
	switch {
	case math.IsInf(f, -1):
		return "-Infinity"
	case math.IsInf(f, 1):
		return "+Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e6:
		return strconv.FormatFloat(f, 'f', 1, 64)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

func joinStringers(parts []string) string { return strings.Join(parts, " ") }

func fieldStrs(fs []FieldSupport) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

func modStrs(ms []ModifierSupport) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

func setOrBasic(s attr.SetName) attr.SetName {
	if s == "" {
		return attr.SetBasic1
	}
	return s
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
