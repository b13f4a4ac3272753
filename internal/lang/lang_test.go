package lang

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseTag(t *testing.T) {
	cases := []struct {
		in   string
		want Tag
		ok   bool
	}{
		{"en-US", Tag{"en", "US"}, true},
		{"en-us", Tag{"en", "US"}, true},
		{"EN", Tag{"en", ""}, true},
		{"es", Tag{"es", ""}, true},
		{"i-klingon", Tag{"i", "KLINGON"}, true},
		{"", Tag{}, false},
		{"en US", Tag{}, false},
		{"toolongtag9x", Tag{}, false},
		{"en-", Tag{}, false},
	}
	for _, tc := range cases {
		got, err := ParseTag(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseTag(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseTag(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTagString(t *testing.T) {
	if got := (Tag{"en", "US"}).String(); got != "en-US" {
		t.Errorf("String = %q", got)
	}
	if got := (Tag{"es", ""}).String(); got != "es" {
		t.Errorf("String = %q", got)
	}
	if got := (Tag{}).String(); got != "" {
		t.Errorf("zero String = %q", got)
	}
}

func TestTagMatches(t *testing.T) {
	cases := []struct {
		have, want string
		match      bool
	}{
		{"en-US", "en", true},
		{"en-GB", "en", true},
		{"en-US", "en-US", true},
		{"en-GB", "en-US", false},
		{"es", "en", false},
		{"en", "en-US", false}, // bare English does not promise American English
		{"", "en-US", true},    // unspecified matches anything
		{"en-US", "", true},
	}
	for _, tc := range cases {
		have, want := Tag{}, Tag{}
		if tc.have != "" {
			have = MustParseTag(tc.have)
		}
		if tc.want != "" {
			want = MustParseTag(tc.want)
		}
		if got := have.Matches(want); got != tc.match {
			t.Errorf("%q matches %q = %v, want %v", tc.have, tc.want, got, tc.match)
		}
	}
}

func TestMustParseTagPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseTag did not panic on invalid tag")
		}
	}()
	MustParseTag("not a tag")
}

func TestScanLString(t *testing.T) {
	cases := []struct {
		in   string
		want LString
		rest string
	}{
		{`"databases"`, L("databases"), ""},
		{"``databases''", L("databases"), ""},
		{`[en-US "behavior"] tail`, LString{Tag: EnglishUS, Text: "behavior"}, " tail"},
		{"[es ``taco'']", LString{Tag: Spanish, Text: "taco"}, ""},
		{`"with \"escape\" and \\ backslash"`, L(`with "escape" and \ backslash`), ""},
		{`  "leading space"`, L("leading space"), ""},
		{`[en-US  "two spaces"]`, LString{Tag: EnglishUS, Text: "two spaces"}, ""},
		{`"日本語テキスト"`, L("日本語テキスト"), ""},
	}
	for _, tc := range cases {
		got, rest, err := ScanLString(tc.in)
		if err != nil {
			t.Errorf("ScanLString(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want || rest != tc.rest {
			t.Errorf("ScanLString(%q) = %v rest %q; want %v rest %q", tc.in, got, rest, tc.want, tc.rest)
		}
	}
}

func TestScanLStringErrors(t *testing.T) {
	for _, in := range []string{
		"", `"unterminated`, "``unterminated", `[en-US "no bracket"`,
		`[bad tag "x"]`, `plain`, `"dangling\`, `[en-US]`,
	} {
		if _, _, err := ScanLString(in); err == nil {
			t.Errorf("ScanLString(%q) succeeded, want error", in)
		}
	}
}

func TestLStringResolve(t *testing.T) {
	if got := L("x").Resolve(EnglishUS); got != EnglishUS {
		t.Errorf("Resolve default = %v", got)
	}
	if got := (LString{Tag: Spanish, Text: "x"}).Resolve(EnglishUS); got != Spanish {
		t.Errorf("Resolve explicit = %v", got)
	}
}

// Property: String() of any l-string built from printable text parses back
// to the same value.
func TestQuickLStringRoundTrip(t *testing.T) {
	tags := []Tag{{}, EnglishUS, English, Spanish, {"fr", "CA"}}
	f := func(text string, tagIdx uint8) bool {
		l := LString{Tag: tags[int(tagIdx)%len(tags)], Text: text}
		back, rest, err := ScanLString(l.String())
		return err == nil && rest == "" && back == l
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
