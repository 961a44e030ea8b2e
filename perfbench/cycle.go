package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"distclass/internal/converge"
	"distclass/internal/core"
	"distclass/internal/engine"
	dmetrics "distclass/internal/metrics"
	"distclass/internal/rng"
	"distclass/internal/wire"
)

// cycleResult is one converge cycle: build the engine, converge, check,
// churn (and, on shard-churn, converge again), stop, check the weight.
type cycleResult struct {
	// e2e holds the cycle's end-to-end values.
	e2e map[string]float64
	// layer holds the traced cycle's per-layer values; killMs and
	// restartMs the latency of its churn calls.
	layer             map[string]float64
	killMs, restartMs []float64
	// msgs is the message count at the first declared convergence.
	msgs int
	// offGrid counts the weights found off the q grid, summed over the
	// cycle's checks.
	offGrid int
	// fails lists the checks the cycle failed; known marks a cycle
	// whose only failure is the documented GM partition fault. err is
	// an engine error.
	fails []string
	known bool
	err   error
}

func (c *cycleResult) failf(format string, args ...any) {
	c.fails = append(c.fails, fmt.Sprintf(format, args...))
	c.known = false
}

// phase accumulates what the converge phases of one cycle cost.
type phase struct {
	wall, cpu          time.Duration
	msgs, mallocs, gcs int64
	tally              methodTally
	stepNs, spreadNs   time.Duration
	probes             int
}

// liveHeapMB forces a GC and returns the heap its mark found live. On a
// running concurrent engine, HeapAlloc would also count whatever the
// gossip allocated since the mark, which varies from cycle to cycle.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *runner) runCycle(cycle int, seed uint64, traced bool) *cycleResult {
	c := &cycleResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	c.err = r.drive(cycle, seed, traced, c)
	return c
}

// drive runs the steps of a cycle, booking failed checks in c, and
// returns an engine error.
func (r *runner) drive(cycle int, seed uint64, traced bool, c *cycleResult) error {
	w := r.w
	values, labels := makeData(seed, w.n)
	// The checker's node samples depend on the cycle's seed alone, so a
	// deterministic backend passes or fails a cycle the same way in
	// every run, traced or not.
	pick := rng.New(seed ^ 0x636865636b)
	m := w.newMethod()
	var tm *timedMethod
	if traced {
		tm = &timedMethod{Method: m}
		m = tm
	}
	reg := dmetrics.NewRegistry()
	cfg := w.config(seed, values, m)
	cfg.Metrics = reg

	start := time.Now()
	eng, err := engine.New(cfg)
	c.e2e["setup_s"] = time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("engine.New: %w", err)
	}
	defer eng.Stop()

	// Concurrent backends gossip from New on: the messages sent before
	// the first convergence starts count towards msgs_per_node too.
	setupMsgs := eng.Stats().MessagesSent
	var ph phase
	if err := r.converge(eng, tm, cycle, &ph, nil); err != nil {
		return err
	}
	c.msgs = eng.Stats().MessagesSent
	snap, snapMsgs := reg.Snapshot(), c.msgs

	c.e2e["heap_mb"] = liveHeapMB()

	q := core.DefaultQ
	if w.backend.Caps().Rounds {
		// Between rounds nothing is in flight that TotalWeight misses.
		//lint:allow floatcmp weights are multiples of a power-of-two q, so their sum is exact
		if total := eng.TotalWeight(); total != float64(w.n) {
			c.failf("weight %v at convergence, want %d", total, w.n)
		}
	}
	cls, sent, err := r.checkConverged(eng, pick, values, labels, q, c)
	if err != nil {
		return err
	}
	if cls == nil {
		// A node check failed: the cycle is booked as failed and the
		// deferred Stop ends the engine.
		return nil
	}
	if traced {
		out, err := outsideTolerance(cls, w.newMethod())
		if err != nil {
			return err
		}
		c.layer["converge.outside_tol_nodes"] = float64(out)
		c.layer["core.offgrid_weights"] = float64(c.offGrid)
	}
	if err := c.wireMetrics(sent); err != nil {
		return err
	}
	if w.backend.Caps().Wire {
		c.e2e["wire_bytes_per_msg"] = float64(snap.Counters["livenet.bytes_sent"]) / float64(snap.Counters["livenet.sent"])
	} else {
		c.e2e["wire_bytes_per_msg"] = c.layer["wire.bytes_per_msg"]
	}

	// Churn: kill evenly spaced nodes, restart some with their values,
	// converge again. The second phase is measured from the first Kill
	// to declared re-convergence: the scheduler keeps gossiping between
	// churn calls, so most of the recovery happens during the churn.
	var destroyed float64
	if w.kills > 0 {
		nodes := w.churnNodes()
		churn := func() error {
			for _, i := range nodes {
				t := time.Now()
				d, err := eng.Kill(i)
				ms := r.churnSpan(cycle, "engine.kill", t)
				if err != nil {
					return fmt.Errorf("Kill(%d): %w", i, err)
				}
				destroyed += d
				c.killMs = append(c.killMs, ms)
			}
			for _, i := range nodes[:w.restarts] {
				t := time.Now()
				err := eng.Restart(i, values[i])
				ms := r.churnSpan(cycle, "engine.restart", t)
				if err != nil {
					return fmt.Errorf("Restart(%d): %w", i, err)
				}
				c.restartMs = append(c.restartMs, ms)
			}
			return nil
		}
		if err := r.converge(eng, tm, cycle, &ph, churn); err != nil {
			return err
		}
		snap, snapMsgs = reg.Snapshot(), eng.Stats().MessagesSent
		if _, _, err := r.checkConverged(eng, pick, values, labels, q, c); err != nil {
			return err
		}
	}

	n := float64(w.n)
	c.e2e["converge_s"] = ph.wall.Seconds()
	c.e2e["converge_cpu_s"] = ph.cpu.Seconds()
	c.e2e["msgs_per_node"] = float64(int64(setupMsgs)+ph.msgs) / n
	c.e2e["cpu_us_per_msg"] = ph.cpu.Seconds() * 1e6 / float64(ph.msgs)
	c.e2e["allocs_per_msg"] = float64(ph.mallocs) / float64(ph.msgs)
	if traced {
		c.layerMetrics(w, &ph, snap, snapMsgs)
	}

	eng.Stop()
	if err := eng.Err(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	want := n - destroyed + float64(w.restarts)
	//lint:allow floatcmp the accounting is exact: on-grid weights, or codec v2's exact totals
	if total := eng.TotalWeight(); total != want {
		c.failf("weight %v after Stop, want %v (N - destroyed + restarted)", total, want)
	}
	if w.backend.Caps().Wire {
		if d := reg.Counter("livenet.decode_errors").Value(); d != 0 {
			c.failf("%d decode errors", d)
		}
		//lint:allow floatcmp the gauge counts links, whole numbers
		if l := reg.Gauge("livenet.links_down").Value(); l != 0 {
			c.failf("%v links down", l)
		}
	}
	return nil
}

// checkConverged runs the per-node and accuracy checks on a converged
// engine and returns the classifications and the messages the sampled
// nodes would send next.
func (r *runner) checkConverged(eng engine.Engine, pick *rng.RNG, values []core.Value, labels []int, q float64, c *cycleResult) ([]core.Classification, []core.Classification, error) {
	cls, offGrid, err := checkNodes(eng, q)
	if err != nil {
		c.failf("%v", err)
		return nil, nil, nil
	}
	c.offGrid += offGrid
	if offGrid > 0 && r.w.codec == wire.CodecV1 {
		// Behind a quantizing codec the count is reported, not checked:
		// v2 decodes weights as fractions of the message total, so they
		// leave the q grid now and then (see README, Faults).
		c.failf("%d weights are not a multiple of q = %v", offGrid, q)
	}
	sample := sampleAlive(cls, pick)
	worst, tiny, err := checkAccuracy(cls, sample, values, labels)
	if err != nil {
		return nil, nil, err
	}
	if worst < minAccuracy {
		first := len(c.fails) == 0
		c.failf("accuracy %.4f below %.2f", worst, minAccuracy)
		c.known = first && r.w.method == "gm" && tiny
	}
	sent := make([]core.Classification, len(sample))
	for j, i := range sample {
		sent[j] = outgoing(cls[i], q)
	}
	return cls, sent, nil
}

// outgoing is the half of cl a node sends on its next split.
func outgoing(cl core.Classification, q float64) core.Classification {
	out := make(core.Classification, 0, len(cl))
	for _, col := range cl {
		if w := col.Weight - core.Half(col.Weight, q); w > 0 {
			out = append(out, core.Collection{Summary: col.Summary, Weight: w})
		}
	}
	return out
}

// churnSpan times a Kill or Restart call in milliseconds, and records it
// as a span on a traced run.
func (r *runner) churnSpan(cycle int, layer string, start time.Time) float64 {
	if r.spans != nil {
		return float64(r.spans.record(cycle, layer, start)) / 1e6
	}
	return float64(time.Since(start)) / 1e6
}

// converge runs churn, when it is given, and then the engine to declared
// convergence, and adds the cost of both to ph. Untraced, it calls
// RunUntilConverged; traced, it drives the same loop itself through the
// public API (Step and Spread on rounds backends, Spread on a 5 ms
// cadence on concurrent ones) so that each call is a span.
func (r *runner) converge(eng engine.Engine, tm *timedMethod, cycle int, ph *phase, churn func() error) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var tal0 methodTally
	if tm != nil {
		tal0 = tm.tally()
	}
	msgs0 := eng.Stats().MessagesSent
	cpu0 := cpuTime()
	start := time.Now()
	var ok bool
	var err error
	if churn != nil {
		err = churn()
	}
	switch {
	case err != nil:
	case tm == nil:
		_, ok, err = eng.RunUntilConverged(convergeTimeout)
	default:
		ok, err = r.tracedConverge(eng, cycle, ph)
	}
	ph.wall += time.Since(start)
	ph.cpu += cpuTime() - cpu0
	ph.msgs += int64(eng.Stats().MessagesSent - msgs0)
	runtime.ReadMemStats(&ms1)
	ph.mallocs += int64(ms1.Mallocs - ms0.Mallocs)
	ph.gcs += int64(ms1.NumGC - ms0.NumGC)
	if tm != nil {
		ph.tally.add(tm.tally().sub(tal0))
	}
	if err != nil {
		return fmt.Errorf("converge: %w", err)
	}
	if !ok {
		return errors.New("did not converge")
	}
	return nil
}

func (r *runner) tracedConverge(eng engine.Engine, cycle int, ph *phase) (bool, error) {
	det := converge.New(tolerance, window)
	probe := func(i int) (bool, error) {
		t := time.Now()
		spread, err := eng.Spread()
		ph.spreadNs += r.spans.record(cycle, "engine.spread", t)
		ph.probes++
		if err != nil {
			return false, err
		}
		return det.Observe(i, spread), nil
	}
	if eng.Backend().Caps().Rounds {
		for round := 0; round < maxRounds; round++ {
			t := time.Now()
			err := eng.Step()
			ph.stepNs += r.spans.record(cycle, "sim.step", t)
			if err != nil {
				return false, err
			}
			if done, err := probe(round); done || err != nil {
				return done, err
			}
		}
		return false, nil
	}
	deadline := time.Now().Add(convergeTimeout)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := eng.Err(); err != nil {
			return false, err
		}
		if done, err := probe(i); done || err != nil {
			return done, err
		}
		time.Sleep(probeSleep)
	}
	return false, eng.Err()
}

// wireMetrics re-encodes the sampled nodes' next messages with codec v2
// outside the transport, and records the per-message encode and decode
// time and the encoded size.
func (c *cycleResult) wireMetrics(sent []core.Classification) error {
	const reps = 50
	var bytes, msgs int
	var encNs, decNs time.Duration
	for _, cl := range sent {
		if len(cl) == 0 {
			continue
		}
		var buf []byte
		t := time.Now()
		for range reps {
			b, err := wire.MarshalClassificationCodec(cl, wire.CodecV2)
			if err != nil {
				return fmt.Errorf("encode: %w", err)
			}
			buf = b
		}
		encNs += time.Since(t)
		t = time.Now()
		for range reps {
			got, err := wire.UnmarshalClassificationLimit(buf, wire.VersionMax)
			if err != nil {
				return fmt.Errorf("decode: %w", err)
			}
			if len(got) != len(cl) {
				return fmt.Errorf("decode: %d collections, encoded %d", len(got), len(cl))
			}
		}
		decNs += time.Since(t)
		bytes += len(buf)
		msgs++
	}
	if msgs == 0 {
		return errors.New("no sampled node has a message to send")
	}
	c.layer["wire.encode_ns"] = float64(encNs.Nanoseconds()) / float64(reps*msgs)
	c.layer["wire.decode_ns"] = float64(decNs.Nanoseconds()) / float64(reps*msgs)
	c.layer["wire.bytes_per_msg"] = float64(bytes) / float64(msgs)
	return nil
}

// layerMetrics fills the traced cycle's per-layer values from its
// converge phases and the registry snapshot taken at the last declared
// convergence, when sent messages had been sent.
func (c *cycleResult) layerMetrics(w *workload, ph *phase, snap dmetrics.Snapshot, sent int) {
	for _, name := range []string{"gm", "centroids"} {
		var t methodTally
		if name == w.method {
			t = ph.tally
		}
		c.layer[name+".partition_s"] = time.Duration(t.partitionNs).Seconds()
		c.layer[name+".partition_calls"] = float64(t.partitionCalls)
		c.layer[name+".partition_inputs"] = ratio(float64(t.partitionInputs), float64(t.partitionCalls))
		c.layer[name+".merge_s"] = time.Duration(t.mergeNs).Seconds()
	}
	methodNs := time.Duration(ph.tally.partitionNs + ph.tally.mergeNs)
	c.layer["sim.step_s"] = ph.stepNs.Seconds()
	c.layer["sim.self_s"] = 0
	if ph.stepNs > 0 {
		c.layer["sim.self_s"] = (ph.stepNs - methodNs).Seconds()
	}
	c.layer["engine.spread_s"] = ph.spreadNs.Seconds()
	c.layer["engine.probes"] = float64(ph.probes)
	c.layer["converge_s"] = ph.wall.Seconds()
	c.layer["runtime.gc_cycles"] = float64(ph.gcs)

	c.layer["core.merges_per_msg"] = ratio(float64(snap.Counters["core.merges"]), float64(sent))
	h := snap.Histograms["core.collections"]
	c.layer["core.collections_mean"] = ratio(h.Sum, float64(h.Count))
	c.layer["core.quantize_drops"] = float64(snap.Counters["core.quantize_drops"])

	lsent := float64(snap.Counters["livenet.sent"])
	c.layer["livenet.frames_per_msg"] = ratio(float64(snap.Counters["livenet.frames_sent"]), lsent)
	c.layer["livenet.delivered_per_sent"] = ratio(float64(snap.Counters["livenet.received"]), lsent)
	c.layer["livenet.send_drops"] = float64(snap.Counters["livenet.send_drops"])
	hs := snap.Histograms["livenet.send_seconds"]
	c.layer["livenet.send_us"] = ratio(hs.Sum, float64(hs.Count)) * 1e6
	ha := snap.Histograms["livenet.absorb_seconds"]
	c.layer["livenet.absorb_us"] = ratio(ha.Sum, float64(ha.Count)) * 1e6
}

func ratio(a, b float64) float64 {
	//lint:allow floatcmp a zero count has no ratio
	if b == 0 {
		return 0
	}
	return a / b
}
