package main

import (
	"fmt"
	"time"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/gm"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/wire"
)

// Settings every workload shares: the smoke gates' two-cluster data on
// the degree-8 regular topology, k = 2, tolerance 0.05, and the engine's
// default probe window.
const (
	k         = 2
	tolerance = 0.05
	window    = 3
	maxRounds = 500
	// probeSleep mirrors the concurrent backends' own probe cadence in
	// RunUntilConverged, so the traced run probes as often as they do.
	probeSleep = 5 * time.Millisecond
	// convergeTimeout bounds one convergence on a concurrent backend.
	convergeTimeout = 30 * time.Second
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name     string
	backend  engine.Backend
	method   string // "gm" or "centroids"
	n        int
	interval time.Duration
	codec    wire.Codec
	batch    int
	// seeds is the fixed list of data and engine seeds; one round of a
	// run is one converge cycle per seed.
	seeds []uint64
	// kills and restarts are the churn step of a cycle: kills evenly
	// spaced nodes, then restarts the first restarts of them with their
	// original values, and converges again.
	kills, restarts int
}

func seedRange(lo, hi uint64) []uint64 {
	var s []uint64
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}

// workloads lists the benchmark's workloads. The concurrent ones have
// short seed lists so that several whole rounds fit in one run, and
// tcp-overload ticks every 2 ms because at 1 ms single cycles range over
// a factor of three, too erratic for any bound (see README.md).
func workloads() []*workload {
	return []*workload{
		{
			name: "round-gm", backend: engine.BackendRound, method: "gm", n: 2048,
			seeds: seedRange(1, 16),
		},
		{
			name: "async-centroids", backend: engine.BackendAsync, method: "centroids", n: 256,
			seeds: seedRange(1, 8),
		},
		{
			name: "shard-churn", backend: engine.BackendShard, method: "centroids", n: 8192,
			interval: time.Millisecond, seeds: seedRange(1, 2),
			kills: 64, restarts: 32,
		},
		{
			name: "tcp-overload", backend: engine.BackendTCP, method: "centroids", n: 256,
			interval: 2 * time.Millisecond, codec: wire.CodecV2, batch: 8,
			seeds: seedRange(1, 4),
		},
	}
}

func findWorkload(name string) (*workload, error) {
	all := workloads()
	for _, w := range all {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w *workload) newMethod() core.Method {
	if w.method == "gm" {
		return gm.Method{}
	}
	return centroids.Method{}
}

// makeData generates the smoke gates' two-cluster data: value i is
// centred at x = -4 for even i and x = +4 for odd i, with unit-variance
// noise on both axes. labels[i] is the generating cluster.
func makeData(seed uint64, n int) (values []core.Value, labels []int) {
	r := rng.New(seed)
	values = make([]core.Value, n)
	labels = make([]int, n)
	for i := range values {
		c := -4.0
		if i%2 == 1 {
			c, labels[i] = 4, 1
		}
		values[i] = core.Value{c + r.Normal(0, 1), r.Normal(0, 1)}
	}
	return values, labels
}

// config is the engine configuration of one cycle.
func (w *workload) config(seed uint64, values []core.Value, m core.Method) engine.Config {
	return engine.Config{
		Backend:    w.backend,
		Method:     m,
		Values:     values,
		Topology:   topology.KindRegular,
		K:          k,
		Seed:       seed,
		Tolerance:  tolerance,
		Window:     window,
		MaxRounds:  maxRounds,
		Interval:   w.interval,
		Codec:      w.codec,
		FrameBatch: w.batch,
	}
}

// churnNodes returns the evenly spaced nodes a cycle kills.
func (w *workload) churnNodes() []int {
	if w.kills == 0 {
		return nil
	}
	nodes := make([]int, w.kills)
	for i := range nodes {
		nodes[i] = i * (w.n / w.kills)
	}
	return nodes
}
