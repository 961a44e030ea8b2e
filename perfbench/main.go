// Command perfbench is the repository benchmark. It runs one workload
// of the gossip classification engine through the public engine API for
// a fixed time, checks every converge cycle apart from the program, and
// prints the paper's cost metrics (§5.3: messages and time to reach a
// converged classification) as the last line of its output:
//
//	perfbench --workload round-gm --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it makes a separate traced run that times the calls
// into each layer from the benchmark's own files and prints the
// per-layer metrics instead. README.md lists the workloads, the metrics
// and the map from each layer metric to the end-to-end metric it moves.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"distclass/internal/rng"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "run seed: the order in which a round visits the fixed seed list")
	seconds := fs.Int("seconds", 10, "measuring time; the run attempts whole rounds of the seed list")
	traceFlag := fs.Int("trace", 0, "1 makes the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	r := newRunner(w, *seed, *traceFlag == 1)
	writeHeader(stdout, r, *seconds)
	out, err := r.run(time.Duration(*seconds)*time.Second, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.spans != nil {
		r.spans.write(stderr)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeHeader prints what a reader needs to compare two runs: the
// host, the toolchain, the build's revision and the seed list.
func writeHeader(w io.Writer, r *runner, seconds int) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", r.w.name, r.seed, seconds, r.traced)
	fmt.Fprintf(w, "host gomaxprocs=%d numcpu=%d cpu=%q go=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version())
	if rev := revision(); rev != "" {
		fmt.Fprintf(w, "revision %s\n", rev)
	}
	fmt.Fprintf(w, "seeds %v order %v\n", r.w.seeds, r.order)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	return rev + modified
}

// runner makes one run of one workload.
type runner struct {
	w      *workload
	seed   uint64
	traced bool
	// order is the seed list in the order this run visits it, drawn
	// from the run seed.
	order []uint64
	spans *spanLog
	cycle int
}

func newRunner(w *workload, seed uint64, traced bool) *runner {
	r := &runner{w: w, seed: seed, traced: traced}
	src := rng.New(seed ^ 0x6f72646572)
	r.order = append([]uint64(nil), w.seeds...)
	src.Shuffle(len(r.order), func(i, j int) { r.order[i], r.order[j] = r.order[j], r.order[i] })
	if traced {
		r.spans = newSpanLog()
	}
	return r
}

// run attempts whole rounds of the seed list — one converge cycle per
// seed, both untraced and traced in a traced run — starting another
// round only while it fits in the measuring time, so every run fails
// the same share of its cycles.
func (r *runner) run(budget time.Duration, log io.Writer) (*result, error) {
	out := &result{Correct: true, Metrics: map[string]metric{}}
	var plain, traced []*cycleResult
	start := time.Now()
	for {
		roundStart := time.Now()
		for j, s := range r.order {
			if !r.traced {
				plain = append(plain, r.attempt(s, false, log, out))
				continue
			}
			// A traced run visits each seed untraced and traced, in
			// alternating order so that neither side always runs second.
			var c, t *cycleResult
			if j%2 == 0 {
				c = r.attempt(s, false, log, out)
				t = r.attempt(s, true, log, out)
			} else {
				t = r.attempt(s, true, log, out)
				c = r.attempt(s, false, log, out)
			}
			plain, traced = append(plain, c), append(traced, t)
			if r.w.backend.Caps().Deterministic && c.err == nil && t.err == nil && c.msgs != t.msgs {
				fmt.Fprintf(log, "traced cycle of seed %d sent %d messages, untraced %d\n", s, t.msgs, c.msgs)
				out.Correct = false
			}
		}
		round := time.Since(roundStart)
		if time.Since(start)+round > budget {
			break
		}
	}
	if r.traced {
		layers, err := r.layerMetrics(plain, traced)
		if err != nil {
			return nil, err
		}
		out.Metrics = layers
	} else {
		out.Metrics = endToEnd(plain)
	}
	if len(out.Metrics) == 0 {
		return nil, fmt.Errorf("no cycle of %s passed its checks", r.w.name)
	}
	return out, nil
}

// attempt runs one cycle and books it: a cycle that errors or fails a
// check counts as failed, and any failure but the documented GM
// partition fault makes the run incorrect.
func (r *runner) attempt(seed uint64, traced bool, log io.Writer, out *result) *cycleResult {
	r.cycle++
	c := r.runCycle(r.cycle, seed, traced)
	out.Attempted++
	status := "ok"
	switch {
	case c.err != nil:
		out.Failed++
		out.Correct = false
		status = "error: " + c.err.Error()
	case len(c.fails) > 0:
		out.Failed++
		if !c.known {
			out.Correct = false
		}
		status = "failed: " + strings.Join(c.fails, "; ")
		if c.known {
			status += " (GM partition fault)"
		}
	}
	fmt.Fprintf(log, "cycle %d seed=%d traced=%v converge_s=%.4f msgs_per_node=%.2f offgrid=%d %s\n",
		r.cycle, seed, traced, c.e2e["converge_s"], c.e2e["msgs_per_node"], c.offGrid, status)
	return c
}

// endToEnd reduces the passing cycles to the end-to-end metrics: the
// median of each per-cycle value.
func endToEnd(cycles []*cycleResult) map[string]metric {
	ok := passing(cycles)
	if len(ok) == 0 {
		return nil
	}
	m := map[string]metric{}
	for _, e := range e2eMetrics() {
		m[e.name] = metric{medianOf(ok, func(c *cycleResult) float64 { return c.e2e[e.name] }), e.unit}
	}
	return m
}

// nameUnit names a metric and its unit.
type nameUnit struct{ name, unit string }

// e2eMetrics lists the end-to-end metrics every untraced run prints.
func e2eMetrics() []nameUnit {
	return []nameUnit{
		{"setup_s", "s"},
		{"converge_s", "s"},
		{"converge_cpu_s", "s"},
		{"msgs_per_node", "msg"},
		{"cpu_us_per_msg", "us"},
		{"allocs_per_msg", "count"},
		{"heap_mb", "MB"},
		{"wire_bytes_per_msg", "B"},
	}
}

func passing(cycles []*cycleResult) []*cycleResult {
	var ok []*cycleResult
	for _, c := range cycles {
		if c.err == nil && len(c.fails) == 0 {
			ok = append(ok, c)
		}
	}
	return ok
}

func medianOf(cycles []*cycleResult, f func(*cycleResult) float64) float64 {
	v := make([]float64, len(cycles))
	for i, c := range cycles {
		v[i] = f(c)
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
