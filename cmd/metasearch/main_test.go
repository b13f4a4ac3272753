package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"starts"
	"starts/internal/core"
	"starts/internal/query"
	"starts/internal/translate"
)

// TestReportOrder: the per-source lines follow the contact order, then the
// harvest failures by id, whatever order the PerSource map ranges in.
func TestReportOrder(t *testing.T) {
	answer := &starts.Answer{
		Contacted: []string{"medicine", "law", "databases"},
		PerSource: map[string]*core.SourceOutcome{
			"medicine":  {Report: &translate.Report{}},
			"law":       {Report: &translate.Report{DroppedFilter: true, DroppedTerms: []query.Term{{}, {}}}},
			"databases": {Err: errors.New("timeout")},
			"zoology":   {Err: errors.New("unreachable")},
			"art":       {Err: errors.New("unreachable")},
		},
		Degraded: core.Degradation{Failed: []string{"databases"}, HarvestFailed: []string{"art", "zoology"}},
	}
	want := strings.Join([]string{
		"degraded answer: skipped=[] stale=[] failed=[databases] harvest-failed=[art zoology]",
		"source law: lossy translation (2 dropped terms, filter dropped true, ranking dropped false)",
		"source databases failed: timeout",
		"source art failed: unreachable",
		"source zoology failed: unreachable",
	}, "\n") + "\n"
	for i := 0; i < 20; i++ { // map order varies from range to range
		var out bytes.Buffer
		report(&out, answer)
		if out.String() != want {
			t.Fatalf("report:\n%s\nwant:\n%s", out.String(), want)
		}
	}
}
