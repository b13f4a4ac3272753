package attr

import (
	"slices"
	"strings"
)

// Modifier specifies what values a query term represents: a comparison
// relation, stemming, phonetic (soundex) matching, thesaurus expansion,
// truncation or case sensitivity. Modifiers correspond to the Z39.50
// "relation attributes". All Basic-1 modifiers are optional for sources.
type Modifier string

// The Basic-1 modifier set (Section 4.1.1).
const (
	ModLT Modifier = "<"
	ModLE Modifier = "<="
	ModEQ Modifier = "="
	ModGE Modifier = ">="
	ModGT Modifier = ">"
	ModNE Modifier = "!="
	// ModPhonetic matches terms by soundex rather than spelling.
	ModPhonetic Modifier = "phonetic"
	// ModStem matches any word sharing the term's stem.
	ModStem Modifier = "stem"
	// ModThesaurus expands the term with its synonyms. New in STARTS.
	ModThesaurus Modifier = "thesaurus"
	// ModRightTruncation matches words with the term as a prefix.
	ModRightTruncation Modifier = "right-truncation"
	// ModLeftTruncation matches words with the term as a suffix.
	ModLeftTruncation Modifier = "left-truncation"
	// ModCaseSensitive disables the default case-insensitive matching.
	// New in STARTS.
	ModCaseSensitive Modifier = "case-sensitive"
)

// ModifierInfo describes one row of the paper's Basic-1 modifier table.
type ModifierInfo struct {
	Modifier Modifier
	Default  string // behaviour when the modifier is absent
	New      bool   // added by STARTS, not in the Z39.50 relation set
}

// basic1Modifiers is the Basic-1 modifier table in the paper's order. The
// six comparison relations share a row in the paper; here each appears
// individually with the shared default.
var basic1Modifiers = [...]ModifierInfo{
	{ModLT, "=", false},
	{ModLE, "=", false},
	{ModEQ, "=", false},
	{ModGE, "=", false},
	{ModGT, "=", false},
	{ModNE, "=", false},
	{ModPhonetic, "no soundex", false},
	{ModStem, "no stemming", false},
	{ModThesaurus, "no thesaurus expansion", true},
	{ModRightTruncation, "no right truncation", false},
	{ModLeftTruncation, "no left truncation", false},
	{ModCaseSensitive, "case insensitive", true},
}

// Basic1Modifiers returns a copy of the Basic-1 modifier table.
func Basic1Modifiers() []ModifierInfo {
	return slices.Clone(basic1Modifiers[:])
}

// LookupModifier resolves a modifier name to its Basic-1 table entry.
func LookupModifier(name string) (ModifierInfo, bool) {
	n := Modifier(strings.ToLower(name))
	for _, mi := range basic1Modifiers {
		if mi.Modifier == n {
			return mi, true
		}
	}
	return ModifierInfo{}, false
}

// IsComparison reports whether m is one of the six relational modifiers,
// which only make sense on ordered fields such as date-last-modified.
func (m Modifier) IsComparison() bool {
	switch m {
	case ModLT, ModLE, ModEQ, ModGE, ModGT, ModNE:
		return true
	}
	return false
}

// String returns the canonical modifier spelling.
func (m Modifier) String() string { return strings.ToLower(string(m)) }
