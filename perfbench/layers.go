package main

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"distclass/internal/core"
)

// timedMethod is the traced run's view of the method layer: a
// core.Method that delegates every call and times Partition and Merge.
// Concurrent backends call it from many goroutines, so its tallies are
// atomic.
type timedMethod struct {
	core.Method
	partitionNs, partitionCalls, partitionInputs atomic.Int64
	mergeNs                                      atomic.Int64
}

func (m *timedMethod) Partition(cs []core.Collection, k int, q float64) ([][]int, error) {
	start := time.Now()
	groups, err := m.Method.Partition(cs, k, q)
	m.partitionNs.Add(int64(time.Since(start)))
	m.partitionCalls.Add(1)
	m.partitionInputs.Add(int64(len(cs)))
	return groups, err
}

func (m *timedMethod) Merge(cs []core.Collection) (core.Summary, error) {
	start := time.Now()
	s, err := m.Method.Merge(cs)
	m.mergeNs.Add(int64(time.Since(start)))
	return s, err
}

// methodTally is a snapshot of a timedMethod's tallies.
type methodTally struct {
	partitionNs, partitionCalls, partitionInputs, mergeNs int64
}

func (m *timedMethod) tally() methodTally {
	return methodTally{
		partitionNs:     m.partitionNs.Load(),
		partitionCalls:  m.partitionCalls.Load(),
		partitionInputs: m.partitionInputs.Load(),
		mergeNs:         m.mergeNs.Load(),
	}
}

func (t methodTally) sub(u methodTally) methodTally {
	return methodTally{
		partitionNs:     t.partitionNs - u.partitionNs,
		partitionCalls:  t.partitionCalls - u.partitionCalls,
		partitionInputs: t.partitionInputs - u.partitionInputs,
		mergeNs:         t.mergeNs - u.mergeNs,
	}
}

func (t *methodTally) add(u methodTally) {
	t.partitionNs += u.partitionNs
	t.partitionCalls += u.partitionCalls
	t.partitionInputs += u.partitionInputs
	t.mergeNs += u.mergeNs
}

// span is one traced call into a layer: which cycle made it, the layer
// boundary it crossed, when it started relative to the run, and how
// long it took. Calls made many times per cycle (Step, Spread) are kept
// as one span per call; method calls are kept as per-converge tallies,
// since there are millions of them.
type span struct {
	cycle int
	layer string
	start time.Duration
	dur   time.Duration
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// record appends the span of a call that started at start.
func (l *spanLog) record(cycle int, layer string, start time.Time) time.Duration {
	d := time.Since(start)
	l.spans = append(l.spans, span{cycle: cycle, layer: layer, start: start.Sub(l.origin), dur: d})
	return d
}

// write prints every span as one tab-separated line.
func (l *spanLog) write(w io.Writer) {
	fmt.Fprintf(w, "# spans: cycle\tlayer\tstart_ns\tdur_ns (%d)\n", len(l.spans))
	for _, s := range l.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\n", s.cycle, s.layer, s.start.Nanoseconds(), s.dur.Nanoseconds())
	}
}

// layerUnits lists every per-layer metric a traced run prints, with its
// unit.
func layerUnits() []nameUnit {
	return []nameUnit{
		{"gm.partition_s", "s"},
		{"gm.partition_calls", "count"},
		{"gm.partition_inputs", "count"},
		{"gm.merge_s", "s"},
		{"centroids.partition_s", "s"},
		{"centroids.partition_calls", "count"},
		{"centroids.partition_inputs", "count"},
		{"centroids.merge_s", "s"},
		{"sim.step_s", "s"},
		{"sim.self_s", "s"},
		{"engine.spread_s", "s"},
		{"engine.probes", "count"},
		{"engine.kill_ms", "ms"},
		{"engine.restart_ms", "ms"},
		{"converge.outside_tol_nodes", "count"},
		{"core.merges_per_msg", "count"},
		{"core.collections_mean", "count"},
		{"core.quantize_drops", "count"},
		{"core.offgrid_weights", "count"},
		{"core.cycle_allocs", "count"},
		{"wire.encode_ns", "ns"},
		{"wire.decode_ns", "ns"},
		{"wire.bytes_per_msg", "B"},
		{"livenet.frames_per_msg", "count"},
		{"livenet.delivered_per_sent", "ratio"},
		{"livenet.send_drops", "count"},
		{"livenet.send_us", "us"},
		{"livenet.absorb_us", "us"},
		{"runtime.gc_cycles", "count"},
		{"trace.overhead_s", "s"},
	}
}

// layerMetrics reduces a traced run to its per-layer metrics: the
// median over passing traced cycles of each per-cycle value, the median
// churn call by kind, the allocations of one standalone split/absorb
// cycle, and the tracing overhead as the traced minus the untraced
// median converge time.
func (r *runner) layerMetrics(plain, traced []*cycleResult) (map[string]metric, error) {
	ok := passing(traced)
	if len(ok) == 0 {
		return nil, nil
	}
	allocs, err := cycleAllocs(r.w)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	for _, l := range layerUnits() {
		var v float64
		switch l.name {
		case "engine.kill_ms", "engine.restart_ms":
			var calls []float64
			for _, c := range ok {
				if l.name == "engine.kill_ms" {
					calls = append(calls, c.killMs...)
				} else {
					calls = append(calls, c.restartMs...)
				}
			}
			v = median(calls)
		case "core.cycle_allocs":
			v = allocs
		case "trace.overhead_s":
			v = medianOf(ok, func(c *cycleResult) float64 { return c.layer["converge_s"] }) -
				medianOf(passing(plain), func(c *cycleResult) float64 { return c.e2e["converge_s"] })
		default:
			v = medianOf(ok, func(c *cycleResult) float64 { return c.layer[l.name] })
		}
		m[l.name] = metric{v, l.unit}
	}
	return m, nil
}

// cycleAllocs counts the heap allocations of one Split plus one Absorb
// on two standalone nodes that exchange halves of their classifications.
func cycleAllocs(w *workload) (float64, error) {
	const warm, iters = 64, 4096
	values, _ := makeData(1, 2)
	cfg := core.Config{Method: w.newMethod(), K: k}
	a, err := core.NewNode(0, values[0], nil, cfg)
	if err != nil {
		return 0, err
	}
	b, err := core.NewNode(1, values[1], nil, cfg)
	if err != nil {
		return 0, err
	}
	exchange := func() error {
		if err := b.Absorb(a.Split()); err != nil {
			return err
		}
		return a.Absorb(b.Split())
	}
	for range warm {
		if err := exchange(); err != nil {
			return 0, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range iters {
		if err := exchange(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(2*iters), nil
}
