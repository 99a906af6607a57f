// Command perfbench is the repository's fixed benchmark. One run builds
// one workload's LDBC graph, then repeats the workload's units of work
// for a fixed time on a small worker pool, verifies every output, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 80, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With -trace 1 the same passes run untraced and then
// traced, and the metrics are the per-layer ones derived from the
// spans, plus the tracing overhead. README.md lists the workloads, the
// metrics, and which layer metric should move which end-to-end metric.
//
// Usage:
//
//	perfbench -workload eval-quick [-seed 7] [-seconds 10] [-trace 0|1] [-scratch DIR]
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphpim/internal/graph"
	"graphpim/internal/machine"
)

// processStart approximates the process's start: package initialization
// runs before main.
var processStart = time.Now()

// setupBuilds is how many times set-up builds the graph; setup_s is the
// median, so one slow build does not move it.
const setupBuilds = 5

// maxWorkers caps the pool. It keeps runs comparable between hosts with
// different CPU counts and bounds peak memory, since each busy worker
// holds one trace.
const maxWorkers = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: eval-quick, ldbc-stream or trace-gen")
	seed := fs.Uint64("seed", 7, "graph generator seed")
	seconds := fs.Int("seconds", 10, "how long each phase repeats the workload's passes")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced phase")
	scratch := fs.String("scratch", filepath.Join(".bench_build", "perfbench"),
		"directory for unlinked trace files and the span log")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := suiteByName(*workload)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		if err == nil {
			err = errors.New("need -seconds >= 1, -trace 0 or 1, and no positional arguments")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r := &runner{s: s, seed: *seed, workers: min(runtime.NumCPU(), maxWorkers),
		dir: *scratch, replay: machine.RunSource}
	prov, _ := json.Marshal(provenance(*seed, r.workers, s.name, *traced))
	fmt.Fprintf(stdout, "provenance %s\n", prov)

	setup := r.setup(processStart)
	// A traced run splits its time between the untraced and traced
	// phases, so every run measures for about the same time.
	budget := time.Duration(*seconds) * time.Second
	if *traced == 1 {
		budget /= 2
	}
	untraced := r.passes(budget, false)
	var traces []*passResult
	if *traced == 1 {
		traces = r.passes(budget, true)
	}
	res := judge(untraced, traces)
	fmt.Fprintf(stderr, "perfbench: setup %.4f s; pass walls untraced %.3f traced %.3f; pass peak RSS MB %.0f\n",
		setup.seconds, walls(untraced), walls(traces), rssMB(untraced))
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: FAIL", f)
	}
	fmt.Fprintf(stdout, "sim_digest %s %s\n", s.name, untraced[0].digest())

	var metrics map[string]metric
	if *traced == 1 {
		var spans []span
		for _, p := range traces {
			spans = append(spans, p.spans...)
		}
		printSelfTimes(stdout, spans, traces, r.workers)
		path := filepath.Join(*scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, *seed))
		if err := saveSpans(path, append(setup.spans, spans...)); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %s\n", path)
		metrics = layerMetrics(r, setup, untraced, traces)
	} else {
		metrics = endToEnd(setup, untraced)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.failures) == 0, res.attempted, len(res.failures), metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func saveSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runner holds one run's workload, graph and pool.
type runner struct {
	s       suite
	seed    uint64
	workers int
	dir     string
	replay  replayFunc
	g       *graph.Graph
	// lastRecords is each app's trace size in the previous pass; nil
	// before the first.
	lastRecords []uint64
}

// setupResult is what set-up measured.
type setupResult struct {
	seconds float64 // process start to the first build's start, plus the median build
	build   float64 // median graph build, s
	spans   []span
}

// setup builds the workload's graph setupBuilds times and keeps the last.
func (r *runner) setup(start time.Time) setupResult {
	t := newTracer(start, -1)
	lead := time.Since(start)
	builds := make([]float64, setupBuilds)
	for i := range builds {
		t0 := time.Now()
		r.g = graph.LDBC(r.s.vertices, r.seed)
		t1 := time.Now()
		t.record("graph.build", t0, t1)
		builds[i] = t1.Sub(t0).Seconds()
	}
	b := median(builds)
	return setupResult{seconds: lead.Seconds() + b, build: b, spans: t.finish()}
}

// unit is one piece of a pass the pool runs: an application's emit, or
// one replay of its trace.
type unit struct {
	label  string
	app    int
	cell   int // index into suite.cells; -1 for an emit
	err    error
	res    machine.Result
	digest string // cycles and sorted counters, or the trace's sizes
}

// passResult is one pass over every unit of the workload.
type passResult struct {
	wall    time.Duration
	units   []unit // emits in app order, then replays in (app, cell) order
	emits   []*emitted
	instrs  uint64 // simulated instructions the pass delivered
	records uint64 // trace records emitted
	bytes   uint64 // encoded trace bytes
	peakRSS uint64 // largest resident set size seen during the pass
	spans   []span
}

// passes repeats the workload at least once, and again while another
// pass as long as the last one still fits in budget. Each pass starts
// from a collected heap, so one pass's garbage does not shift the next
// one's collections or the peak RSS.
func (r *runner) passes(budget time.Duration, traced bool) []*passResult {
	var out []*passResult
	start := time.Now()
	for len(out) == 0 || time.Since(start)+out[len(out)-1].wall <= budget {
		var t *tracer
		if traced {
			t = newTracer(processStart, len(out))
		}
		runtime.GC()
		rss := sampleRSS()
		p := r.pass(t)
		p.peakRSS = rss.stop()
		out = append(out, p)
	}
	return out
}

// pass runs every emit unit, then every replay unit of the emits that
// succeeded, each stage on the pool.
func (r *runner) pass(t *tracer) *passResult {
	s := r.s
	start := time.Now()
	p := &passResult{emits: make([]*emitted, len(s.apps))}
	for i, app := range s.apps {
		p.emits[i] = &emitted{app: app}
		p.units = append(p.units, unit{label: "emit " + app.Info().Name, app: i, cell: -1})
	}
	for i, app := range s.apps {
		for j, c := range s.cells {
			p.units = append(p.units, unit{label: "replay " + app.Info().Name + " " + c.String(), app: i, cell: j})
		}
	}
	emits, replays := p.units[:len(s.apps)], p.units[len(s.apps):]

	// Largest trace first, by the previous pass's sizes: the slowest
	// units do not start last, and the same units overlap in every pass,
	// so the peak memory they reach together repeats.
	order := longestFirst(len(emits), func(i int) uint64 {
		if r.lastRecords == nil {
			return 0
		}
		return r.lastRecords[i]
	})
	pool(r.workers, len(order), func(k int) {
		i := order[k]
		u := &emits[i]
		sp := t.unit(i)
		defer sp.close()
		u.err = protect(func() error { return s.emit(sp, r.g, p.emits[i], r.dir) })
		e := p.emits[i]
		u.digest = fmt.Sprintf("records=%d instrs=%d bytes=%d", e.records, e.instrs, e.bytes)
	})

	order = longestFirst(len(replays), func(i int) uint64 { return p.emits[replays[i].app].instrs })
	pool(r.workers, len(order), func(k int) {
		i := order[k]
		u := &replays[i]
		sp := t.unit(len(emits) + i)
		defer sp.close()
		if err := emits[u.app].err; err != nil {
			u.err = fmt.Errorf("not replayed: %v", err)
			return
		}
		u.err = protect(func() error {
			var err error
			u.res, err = s.replay(sp, r.replay, r.seed, p.emits[u.app], s.cells[u.cell])
			return err
		})
		u.digest = resultDigest(u.res)
	})

	r.lastRecords = make([]uint64, len(p.emits))
	for i, e := range p.emits {
		if e.spill != nil {
			e.spill.Close()
		}
		// Only the counts outlive the pass.
		e.src, e.space, e.spill = nil, nil, nil
		r.lastRecords[i] = e.records
		p.records += e.records
		p.bytes += e.bytes
	}
	for _, u := range replays {
		p.instrs += u.res.Instructions
	}
	if len(replays) == 0 {
		for _, e := range p.emits {
			p.instrs += e.instrs
		}
	}
	p.wall = time.Since(start)
	if t != nil {
		p.spans = t.finish()
	}
	return p
}

// longestFirst returns 0..n-1 ordered by decreasing size, ties in index
// order.
func longestFirst(n int, size func(i int) uint64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	return order
}

// pool runs fn(0..n-1) on at most workers goroutines, handing indices
// out in order, and returns once every call has returned.
func pool(workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// protect runs fn, turning a panic into the unit's error.
func protect(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// resultDigest hashes a cell's cycles, retired instructions and sorted
// counters.
func resultDigest(res machine.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d\n", res.Config, res.Cycles, res.Instructions)
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, res.Stats[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// digest is the workload's sim_digest: one hash over every unit's digest
// in unit order. It is printed, never compared with a committed value.
func (p *passResult) digest() string {
	h := sha256.New()
	for _, u := range p.units {
		fmt.Fprintf(h, "%s %s\n", u.label, u.digest)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// verdict is the run's correctness: units attempted and the failures.
type verdict struct {
	attempted int
	failures  []string
}

// judge counts a unit as failed when it reported an error, or when its
// digest differs from the same unit's in the first untraced pass: passes
// are deterministic, and tracing must not change a simulated number.
func judge(untraced, traced []*passResult) verdict {
	var v verdict
	ref := untraced[0].units
	for k, p := range append(append([]*passResult{}, untraced...), traced...) {
		for i, u := range p.units {
			v.attempted++
			switch {
			case u.err != nil:
				v.failures = append(v.failures, fmt.Sprintf("pass %d: %s: %v", k, u.label, u.err))
			case u.digest != ref[i].digest:
				v.failures = append(v.failures, fmt.Sprintf("pass %d: %s: digest %s differs from the first pass's %s",
					k, u.label, u.digest, ref[i].digest))
			}
		}
	}
	return v
}
