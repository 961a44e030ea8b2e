package main

import (
	"fmt"
	"math"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/gm"
	"distclass/internal/rng"
)

// The checks below are made apart from the program: they read the
// engine's classifications through its public API and judge them with
// the benchmark's own arithmetic, never with the program's partition,
// density or convergence code.

const (
	// minAccuracy is the share of values a sampled node must classify
	// as their generating cluster does.
	minAccuracy = 0.99
	// accuracySample is the number of alive nodes whose classification
	// is scored per check.
	accuracySample = 16
	// covRidge keeps a point collection's zero covariance invertible
	// in the benchmark's own density rule.
	covRidge = 1e-6
	// tinyWeight marks a collection that carries far less than one
	// input's weight (1.0): the signature of the GM partition fault.
	tinyWeight = 1e-3
)

// checkNodes verifies |M| <= k and positive weights at every alive
// node, counts the weights that are not a multiple of q, and returns the alive nodes' classifications (nil for dead
// ones).
func checkNodes(eng engine.Engine, q float64) (cls []core.Classification, offGrid int, err error) {
	cls = make([]core.Classification, eng.N())
	for i := range cls {
		if !eng.Alive(i) {
			continue
		}
		c := eng.Classification(i)
		if len(c) == 0 || len(c) > k {
			return nil, 0, fmt.Errorf("node %d holds %d collections, want 1..%d", i, len(c), k)
		}
		for j, col := range c {
			if !(col.Weight > 0) {
				return nil, 0, fmt.Errorf("node %d collection %d: weight %v is not positive", i, j, col.Weight)
			}
			units := col.Weight / q
			//lint:allow floatcmp q is a power of two, so an on-grid weight divides into an exact integer
			if units != math.Trunc(units) {
				offGrid++
			}
		}
		cls[i] = c
	}
	return cls, offGrid, nil
}

// sampleAlive picks up to accuracySample alive nodes with the
// benchmark's own generator, independently of the engine's probe
// sample.
func sampleAlive(cls []core.Classification, r *rng.RNG) []int {
	var alive []int
	for i, c := range cls {
		if c != nil {
			alive = append(alive, i)
		}
	}
	r.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	if len(alive) > accuracySample {
		alive = alive[:accuracySample]
	}
	return alive
}

// checkAccuracy scores each sampled node's classification against the
// generating labels. It returns the lowest accuracy seen and, when that
// is below minAccuracy, whether the failing classification carries the
// GM fault's signature: a collection of far less than one input's
// weight kept as its own group.
func checkAccuracy(cls []core.Classification, sample []int, values []core.Value, labels []int) (worst float64, tiny bool, err error) {
	worst = 1
	for _, i := range sample {
		acc, err := accuracy(cls[i], values, labels)
		if err != nil {
			return 0, false, fmt.Errorf("node %d: %w", i, err)
		}
		if acc < worst {
			worst = acc
			tiny = false
			for _, c := range cls[i] {
				if c.Weight < tinyWeight {
					tiny = true
				}
			}
		}
	}
	return worst, tiny, nil
}

// accuracy assigns every value to a collection of cl — highest weighted
// density for GM summaries, nearest mean for centroids — and returns
// the share of values whose collection matches their label, under the
// best one-to-one map of collections to labels.
func accuracy(cl core.Classification, values []core.Value, labels []int) (float64, error) {
	var counts [k][2]int
	for i, x := range values {
		c, err := assign(cl, x)
		if err != nil {
			return 0, err
		}
		counts[c][labels[i]]++
	}
	best := max(counts[0][0]+counts[1][1], counts[0][1]+counts[1][0])
	if len(cl) == 1 {
		best = max(counts[0][0], counts[0][1])
	}
	return float64(best) / float64(len(values)), nil
}

func assign(cl core.Classification, x core.Value) (int, error) {
	best, bestScore := -1, math.Inf(-1)
	for i, c := range cl {
		var score float64
		switch s := c.Summary.(type) {
		case gm.Summary:
			ld, err := logDensity2(s, x)
			if err != nil {
				return 0, err
			}
			score = math.Log(c.Weight) + ld
		case centroids.Centroid:
			if len(s.Point) != len(x) {
				return 0, fmt.Errorf("centroid of dimension %d for a %d-dimensional value", len(s.Point), len(x))
			}
			var d2 float64
			for j := range x {
				d := x[j] - s.Point[j]
				d2 += d * d
			}
			score = -d2
		default:
			return 0, fmt.Errorf("unexpected summary type %T", c.Summary)
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no collection scores the value %v", x)
	}
	return best, nil
}

// logDensity2 is the log density at x of a 2-D Gaussian summary, its
// covariance widened by covRidge, in closed form.
func logDensity2(s gm.Summary, x core.Value) (float64, error) {
	if len(s.G.Mean) != 2 || len(x) != 2 || s.G.Cov == nil {
		return 0, fmt.Errorf("density rule needs 2-D summaries and values")
	}
	a := s.G.Cov.At(0, 0) + covRidge
	b := s.G.Cov.At(0, 1)
	d := s.G.Cov.At(1, 1) + covRidge
	det := a*d - b*b
	if !(det > 0) {
		return 0, fmt.Errorf("covariance [[%v %v] [%v %v]] is not positive definite", a, b, b, d)
	}
	dx, dy := x[0]-s.G.Mean[0], x[1]-s.G.Mean[1]
	m2 := (d*dx*dx - 2*b*dx*dy + a*dy*dy) / det
	return -math.Log(2*math.Pi) - 0.5*math.Log(det) - 0.5*m2, nil
}

// outsideTolerance counts the alive nodes farther than the tolerance
// from node 0 (or the first alive node) — how far the engine's sampled
// detector is from true convergence when it declares it.
func outsideTolerance(cls []core.Classification, m core.Method) (int, error) {
	ref := -1
	for i, c := range cls {
		if c != nil {
			ref = i
			break
		}
	}
	count := 0
	for i, c := range cls {
		if c == nil || i == ref {
			continue
		}
		d, err := core.Dissimilarity(cls[ref], c, m)
		if err != nil {
			return 0, err
		}
		if d > tolerance {
			count++
		}
	}
	return count, nil
}
