package merge

import (
	"fmt"

	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// Calibration maps one source's raw scores onto a common reference scale.
// It is fitted from the source's sample-database results (Section 4.2):
// because every source publishes its results for the same known collection
// and queries, a metasearcher can regress each black-box ranker's scores
// against a reference ranker's scores for the same (query, document)
// pairs.
type Calibration struct {
	Slope, Intercept float64
	// Samples is the number of (query, document) pairs the fit used.
	Samples int
}

// Apply maps a raw score onto the reference scale, clamped at zero.
func (c Calibration) Apply(raw float64) float64 {
	s := c.Slope*raw + c.Intercept
	if s < 0 {
		return 0
	}
	return s
}

// Fit computes a least-squares linear fit from a source's sample results
// to a reference source's sample results. Pairs are joined on (query
// index, document linkage). At least two pairs are required.
func Fit(src, ref []*source.SampleEntry) (Calibration, error) {
	if len(src) != len(ref) {
		return Calibration{}, fmt.Errorf("merge: sample streams differ in length: %d vs %d", len(src), len(ref))
	}
	var xs, ys []float64
	for i := range src {
		refScores := map[string]float64{}
		for _, d := range ref[i].Results.Documents {
			refScores[d.Linkage()] = d.RawScore
		}
		for _, d := range src[i].Results.Documents {
			if y, ok := refScores[d.Linkage()]; ok {
				xs = append(xs, d.RawScore)
				ys = append(ys, y)
			}
		}
	}
	n := len(xs)
	if n < 2 {
		return Calibration{}, fmt.Errorf("merge: need at least two joined sample pairs to calibrate, have %d", n)
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	nf := float64(n)
	den := nf*sxx - sx*sx
	if den == 0 {
		// Constant sample scores carry no slope information; map
		// everything to the mean reference score.
		return Calibration{Slope: 0, Intercept: sy / nf, Samples: n}, nil
	}
	slope := (nf*sxy - sx*sy) / den
	return Calibration{Slope: slope, Intercept: (sy - slope*sx) / nf, Samples: n}, nil
}

// Calibrated merges on sample-calibrated scores: each source's raw scores
// pass through its fitted Calibration before comparison.
type Calibrated struct {
	// Maps source IDs to their fitted calibrations. Sources without one
	// fall back to their raw scores.
	BySource map[string]Calibration
}

// Name implements Strategy.
func (Calibrated) Name() string { return "sample-calibrated" }

// Merge implements Strategy.
func (c Calibrated) Merge(q *query.Query, inputs []SourceResult) []*result.Document {
	items := newItems(inputs)
	for _, in := range inputs {
		cal, ok := c.BySource[in.SourceID]
		for _, d := range in.Results.Documents {
			s := d.RawScore
			if ok {
				s = cal.Apply(s)
			}
			items = append(items, merged{doc: d, score: s, order: len(items)})
		}
	}
	return fuse(items, fuseLimit(q))
}
