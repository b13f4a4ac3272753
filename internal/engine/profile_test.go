package engine

import (
	"reflect"
	"testing"

	"starts/internal/attr"
	"starts/internal/meta"
	"starts/internal/text"
)

// The capability predicates profile replaced, kept as its oracle: what an
// engine answered of a field, a modifier and a pairing of the two before
// its Config became MBasic-1 lists.

// SupportsField reports whether the engine recognizes a field (required
// fields always).
func (e *Engine) SupportsField(f attr.Field) bool {
	f = attr.Normalize(f)
	if f.IsRequired() {
		return true
	}
	if f == attr.FieldFreeFormText {
		return e.cfg.Native != nil
	}
	for _, sf := range e.cfg.Fields {
		if attr.Normalize(sf) == f {
			return true
		}
	}
	return false
}

// SupportsModifier reports whether the engine supports a modifier.
func (e *Engine) SupportsModifier(m attr.Modifier) bool {
	if m == attr.ModThesaurus {
		return e.cfg.Thesaurus != nil
	}
	if m == attr.ModCaseSensitive {
		// Only a case-preserving index can honor case-sensitive matching.
		if !e.cfg.Analyzer.CaseSensitive {
			return false
		}
	}
	for _, sm := range e.cfg.Mods {
		if sm == m {
			return true
		}
	}
	return m == attr.ModCaseSensitive && e.cfg.Analyzer.CaseSensitive
}

// AllowsCombination reports whether applying the modifier to the field is
// legal at this engine.
func (e *Engine) AllowsCombination(f attr.Field, m attr.Modifier) bool {
	if !e.SupportsField(f) || !e.SupportsModifier(m) {
		return false
	}
	for _, bad := range e.cfg.IllegalCombos[attr.Normalize(f)] {
		if bad == m {
			return false
		}
	}
	// Comparisons only make sense on the date field.
	if m.IsComparison() && m != attr.ModEQ {
		return attr.Normalize(f) == attr.FieldDateLastModified
	}
	return true
}

// oracleLists are the MBasic-1 lists a source's metadata enumerated from
// the predicates: every optional Basic-1 field and every Basic-1 modifier
// supported, then every legal pairing of a recognized field with a
// supported modifier, required fields first.
func oracleLists(e *Engine) *meta.SourceMeta {
	m := &meta.SourceMeta{}
	fields := attr.RequiredFields()
	for _, fi := range attr.Basic1Fields() {
		if !fi.Required && e.SupportsField(fi.Field) {
			m.FieldsSupported = append(m.FieldsSupported, meta.FieldSupport{Set: attr.SetBasic1, Field: fi.Field})
			fields = append(fields, fi.Field)
		}
	}
	for _, mi := range attr.Basic1Modifiers() {
		if e.SupportsModifier(mi.Modifier) {
			m.ModifiersSupported = append(m.ModifiersSupported, meta.ModifierSupport{Set: attr.SetBasic1, Mod: mi.Modifier})
		}
	}
	for _, f := range fields {
		for _, ms := range m.ModifiersSupported {
			if e.AllowsCombination(f, ms.Mod) {
				m.Combinations = append(m.Combinations, meta.Combination{
					Field: meta.FieldSupport{Set: attr.SetBasic1, Field: attr.Normalize(f)},
					Mod:   ms,
				})
			}
		}
	}
	return m
}

// TestProfileMatchesPredicates: under every kind of Config, the MBasic-1
// lists an engine builds are the ones the predicates enumerated, in their
// order, and the metadata's compiled sets answer every field, modifier and
// pairing as the predicates do.
func TestProfileMatchesPredicates(t *testing.T) {
	vector := func(edit func(*Config)) Config {
		c := NewVectorConfig()
		edit(&c)
		return c
	}
	tok, _ := text.LookupTokenizer("Acme-2")
	configs := map[string]Config{
		"vector":  NewVectorConfig(),
		"boolean": NewBooleanConfig(),
		"thesaurus": vector(func(c *Config) {
			c.Mods = append(c.Mods, attr.ModThesaurus)
			c.Thesaurus = text.DefaultThesaurus()
		}),
		"thesaurus-unlisted": vector(func(c *Config) { c.Thesaurus = text.DefaultThesaurus() }),
		"thesaurus-listed-only": vector(func(c *Config) {
			c.Mods = append(c.Mods, attr.ModThesaurus)
		}),
		"case-sensitive": vector(func(c *Config) {
			c.Analyzer = &text.Analyzer{Tokenizer: tok, Stop: text.EnglishStopWords(), CaseSensitive: true}
		}),
		"case-sensitive-listed-on-folding": vector(func(c *Config) {
			c.Mods = append(c.Mods, attr.ModCaseSensitive)
		}),
		"native": vector(func(c *Config) { c.Native = SubstringNative }),
		"free-form-listed-without-native": vector(func(c *Config) {
			c.Fields = append(c.Fields, attr.FieldFreeFormText)
		}),
		"illegal-combos": vector(func(c *Config) {
			c.IllegalCombos = map[attr.Field][]attr.Modifier{
				attr.FieldAuthor:           {attr.ModStem, attr.ModPhonetic},
				attr.FieldTitle:            {attr.ModEQ},
				attr.FieldDateLastModified: {attr.ModGT},
			}
		}),
		"no-author":      vector(func(c *Config) { c.Fields = []attr.Field{attr.FieldBodyOfText} }),
		"required-only":  vector(func(c *Config) { c.Fields = nil }),
		"eq-only":        vector(func(c *Config) { c.Mods = []attr.Modifier{attr.ModEQ} }),
		"no-modifiers":   vector(func(c *Config) { c.Mods = nil }),
		"mixed-case-cfg": vector(func(c *Config) { c.Fields = []attr.Field{"Author", "BODY-of-text"} }),
	}
	fields := []attr.Field{"made-up-field", "Author", "TITLE", "date/time-last-modified", "Date/Time-Last-Modified"}
	for _, fi := range attr.Basic1Fields() {
		fields = append(fields, fi.Field)
	}
	for name, cfg := range configs {
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		caps := e.Capabilities()
		want := oracleLists(e)
		if !reflect.DeepEqual(caps.FieldsSupported, want.FieldsSupported) ||
			!reflect.DeepEqual(caps.ModifiersSupported, want.ModifiersSupported) ||
			!reflect.DeepEqual(caps.Combinations, want.Combinations) {
			t.Errorf("%s: profile\n%v %v %v\npredicates\n%v %v %v", name,
				caps.FieldsSupported, caps.ModifiersSupported, caps.Combinations,
				want.FieldsSupported, want.ModifiersSupported, want.Combinations)
		}
		for _, f := range fields {
			if got, want := caps.SupportsField(f), e.SupportsField(f); got != want {
				t.Errorf("%s: field %q supported %v, predicate %v", name, f, got, want)
			}
			for _, mi := range attr.Basic1Modifiers() {
				m := mi.Modifier
				if got, want := caps.SupportsModifier(m), e.SupportsModifier(m); got != want {
					t.Errorf("%s: modifier %q supported %v, predicate %v", name, m, got, want)
				}
				if got, want := caps.AllowsCombination(f, m), e.AllowsCombination(f, m); got != want {
					t.Errorf("%s: (%s %s) allowed %v, predicate %v", name, f, m, got, want)
				}
			}
		}
	}
}
