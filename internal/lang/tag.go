// Package lang implements the language facilities of STARTS: RFC 1766
// language-country tags (such as "en-US") and l-strings, the query-language
// building blocks that qualify a UTF-8 string with the language it is
// written in (such as `[en-US "behavior"]`).
package lang

import (
	"fmt"
	"strings"
)

// Tag is an RFC 1766 language tag with an optional country subtag, as used
// throughout STARTS to qualify strings, fields and tokenizers. The zero Tag
// means "unspecified".
type Tag struct {
	Language string // primary subtag, lower case, e.g. "en"
	Country  string // optional country subtag, upper case, e.g. "US"
}

// Common tags used by the defaults in the STARTS specification.
var (
	// EnglishUS is the specification's default query language.
	EnglishUS = Tag{Language: "en", Country: "US"}
	// English is bare English with no country qualification.
	English = Tag{Language: "en"}
	// Spanish appears in the paper's multi-language examples.
	Spanish = Tag{Language: "es"}
)

// ParseTag parses an RFC 1766 tag of the form "language" or
// "language-COUNTRY". Subtags must be 1-8 ASCII letters.
func ParseTag(s string) (Tag, error) {
	if s == "" {
		return Tag{}, fmt.Errorf("lang: empty language tag")
	}
	language, country, hasCountry := strings.Cut(s, "-")
	t := Tag{Language: strings.ToLower(language)}
	if hasCountry {
		t.Country = strings.ToUpper(country)
	}
	if err := validSubtag(t.Language); err != nil {
		return Tag{}, fmt.Errorf("lang: invalid language subtag %q: %w", language, err)
	}
	if hasCountry {
		if err := validSubtag(t.Country); err != nil {
			return Tag{}, fmt.Errorf("lang: invalid country subtag %q: %w", country, err)
		}
	}
	return t, nil
}

// MustParseTag is ParseTag for statically known tags; it panics on error.
func MustParseTag(s string) Tag {
	t, err := ParseTag(s)
	if err != nil {
		panic(err)
	}
	return t
}

func validSubtag(s string) error {
	if len(s) == 0 || len(s) > 8 {
		return fmt.Errorf("subtag length %d outside 1..8", len(s))
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') && (r < '0' || r > '9') {
			return fmt.Errorf("character %q not allowed", r)
		}
	}
	return nil
}

// IsZero reports whether the tag is the unspecified tag.
func (t Tag) IsZero() bool { return t.Language == "" }

// String renders the tag in RFC 1766 form ("en-US", "es"). The zero tag
// renders as the empty string.
func (t Tag) String() string {
	if t.Language == "" || t.Country == "" {
		return t.Language
	}
	return t.Language + "-" + t.Country
}

// Append appends the tag's String form to dst.
func (t Tag) Append(dst []byte) []byte {
	if t.Language == "" || t.Country == "" {
		return append(dst, t.Language...)
	}
	return append(append(append(dst, t.Language...), '-'), t.Country...)
}

// Matches reports whether t satisfies a request for want. A request for a
// bare language ("en") is satisfied by any dialect of it ("en-US", "en-GB");
// a request with a country is satisfied only by an exact match. The zero
// tag matches everything, in both positions.
func (t Tag) Matches(want Tag) bool {
	if want.IsZero() || t.IsZero() {
		return true
	}
	if t.Language != want.Language {
		return false
	}
	return want.Country == "" || t.Country == want.Country
}
