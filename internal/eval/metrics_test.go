package eval

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPrecisionRecall(t *testing.T) {
	ranked := []string{"a", "b", "c", "d"}
	rel := map[string]bool{"a": true, "c": true, "z": true}
	if got := PrecisionAtK(ranked, rel, 2); !almost(got, 0.5) {
		t.Errorf("P@2 = %g", got)
	}
	if got := PrecisionAtK(ranked, rel, 4); !almost(got, 0.5) {
		t.Errorf("P@4 = %g", got)
	}
	if got := PrecisionAtK(ranked, rel, 10); !almost(got, 0.5) {
		t.Errorf("P@10 over short rank = %g", got)
	}
	if got := PrecisionAtK(ranked, rel, 0); got != 0 {
		t.Errorf("P@0 = %g", got)
	}
	if got := PrecisionAtK(nil, rel, 3); got != 0 {
		t.Errorf("P over empty rank = %g", got)
	}
}

func TestOverlap(t *testing.T) {
	if got := Overlap([]string{"a", "b"}, []string{"b", "c"}); !almost(got, 1.0/3.0) {
		t.Errorf("Overlap = %g", got)
	}
	if got := Overlap(nil, nil); got != 1 {
		t.Errorf("Overlap of empties = %g", got)
	}
	if got := Overlap([]string{"a"}, []string{"a"}); got != 1 {
		t.Errorf("Overlap identical = %g", got)
	}
	if got := Overlap([]string{"a"}, []string{"b"}); got != 0 {
		t.Errorf("Overlap disjoint = %g", got)
	}
	// Duplicates in b are counted once.
	if got := Overlap([]string{"a"}, []string{"a", "a"}); got != 1 {
		t.Errorf("Overlap with dup = %g", got)
	}
}

func TestKendallTau(t *testing.T) {
	if tau, err := KendallTau([]string{"a", "b", "c"}, []string{"a", "b", "c"}); err != nil || !almost(tau, 1) {
		t.Errorf("identical tau = %g, %v", tau, err)
	}
	if tau, err := KendallTau([]string{"a", "b", "c"}, []string{"c", "b", "a"}); err != nil || !almost(tau, -1) {
		t.Errorf("reversed tau = %g, %v", tau, err)
	}
	// One swap among three: 2 concordant, 1 discordant -> 1/3.
	if tau, err := KendallTau([]string{"a", "b", "c"}, []string{"b", "a", "c"}); err != nil || !almost(tau, 1.0/3.0) {
		t.Errorf("one-swap tau = %g, %v", tau, err)
	}
	// Non-common items are ignored.
	if tau, err := KendallTau([]string{"a", "x", "b"}, []string{"a", "b", "y"}); err != nil || !almost(tau, 1) {
		t.Errorf("partial tau = %g, %v", tau, err)
	}
	if _, err := KendallTau([]string{"a"}, []string{"a"}); err == nil {
		t.Error("tau over one item should fail")
	}
	if _, err := KendallTau([]string{"a", "b"}, []string{"x", "y"}); err == nil {
		t.Error("tau over disjoint ranks should fail")
	}
}

func TestRn(t *testing.T) {
	merit := map[string]float64{"s1": 10, "s2": 5, "s3": 0, "s4": 1}
	ideal := []string{"s1", "s2", "s4", "s3"}
	if got := Rn(ideal, merit, 1); !almost(got, 1) {
		t.Errorf("ideal R1 = %g", got)
	}
	if got := Rn(ideal, merit, 2); !almost(got, 1) {
		t.Errorf("ideal R2 = %g", got)
	}
	bad := []string{"s3", "s4", "s2", "s1"}
	if got := Rn(bad, merit, 1); !almost(got, 0) {
		t.Errorf("bad R1 = %g", got)
	}
	if got := Rn(bad, merit, 2); !almost(got, 1.0/15.0) {
		t.Errorf("bad R2 = %g", got)
	}
	// All-zero merit: any order is ideal.
	if got := Rn(bad, map[string]float64{"a": 0}, 1); got != 1 {
		t.Errorf("zero-merit Rn = %g", got)
	}
	if got := Rn(ideal, merit, 0); got != 0 {
		t.Errorf("R0 = %g", got)
	}
	// n beyond the number of sources saturates at 1.
	if got := Rn(bad, merit, 10); !almost(got, 1) {
		t.Errorf("R10 = %g", got)
	}
}
