package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphpim/internal/gframe"
	"graphpim/internal/harness"
	"graphpim/internal/machine"
	"graphpim/internal/memmap"
	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

// tinyVertices keeps the tests' graphs small; cells are still the full
// eval-quick set.
const tinyVertices = 256

func tinyRunner(t *testing.T, s suite, replay replayFunc) *runner {
	t.Helper()
	r := &runner{s: s, seed: 7, workers: 2, dir: t.TempDir(), replay: replay}
	r.setup(time.Now())
	return r
}

// TestCellsMatchHarness pins the benchmark to what `graphpim run`
// computes: every eval-quick cell's Result equals the harness's
// Env.RunSized for the same workload, kind and memory.
func TestCellsMatchHarness(t *testing.T) {
	s := evalQuick(tinyVertices)
	r := tinyRunner(t, s, machine.RunSource)
	p := r.pass(nil)
	if v := judge([]*passResult{p}, nil); len(v.failures) > 0 {
		t.Fatalf("clean pass failed units: %v", v.failures)
	}
	envs := map[string]*harness.Env{}
	for _, u := range p.units[len(s.apps):] {
		c := s.cells[u.cell]
		if envs[c.memory] == nil {
			envs[c.memory] = s.env(r.seed, c.memory)
		}
		want := envs[c.memory].RunSized(s.apps[u.app], s.vertices, c.kind)
		if !reflect.DeepEqual(u.res, want) {
			t.Errorf("%s: benchmark result differs from harness.Env.RunSized", u.label)
		}
	}
}

// corruptBFS returns BFS with one depth off by one.
type corruptBFS struct{ workloads.Workload }

func (c corruptBFS) Run(f *gframe.Framework) workloads.Result {
	res := c.Workload.Run(f)
	out := res.Output.(workloads.BFSOutput)
	out.Depth[1]++
	return res
}

// TestFailuresAreCounted injects each kind of unit failure and checks
// that judge counts it rather than passing it silently.
func TestFailuresAreCounted(t *testing.T) {
	base := evalQuick(tinyVertices)
	base.apps = []workloads.Workload{workloads.NewBFS(0), workloads.NewDC()}
	base.cells = evalCells[:3]
	units := len(base.apps) * (1 + len(base.cells))

	corrupt := base
	corrupt.apps = []workloads.Workload{corruptBFS{workloads.NewBFS(0)}, workloads.NewDC()}
	truncated := func(cfg machine.Config, space *memmap.AddressSpace, src trace.Source) machine.Result {
		return machine.NewSource(cfg, space, src).Run(1000)
	}
	panicking := func(machine.Config, *memmap.AddressSpace, trace.Source) machine.Result {
		panic("injected")
	}
	cases := []struct {
		name   string
		s      suite
		replay replayFunc
		failed int
		want   string
	}{
		// The emit fails, and so do the replays that needed its trace.
		{"corrupted output", corrupt, machine.RunSource, 1 + len(base.cells), "differs from the reference"},
		{"truncated replay", base, truncated, len(base.apps) * len(base.cells), "retired"},
		{"panicking replay", base, panicking, len(base.apps) * len(base.cells), "panic: injected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tinyRunner(t, tc.s, tc.replay).pass(nil)
			v := judge([]*passResult{p}, nil)
			if v.attempted != units || len(v.failures) != tc.failed {
				t.Fatalf("attempted %d, failed %d; want %d, %d: %v",
					v.attempted, len(v.failures), units, tc.failed, v.failures)
			}
			if !strings.Contains(strings.Join(v.failures, "\n"), tc.want) {
				t.Fatalf("failures %v do not mention %q", v.failures, tc.want)
			}
		})
	}

	t.Run("stats differ between passes", func(t *testing.T) {
		r := tinyRunner(t, base, machine.RunSource)
		clean, traced := r.pass(nil), r.pass(newTracer(time.Now(), 0))
		traced.units[len(base.apps)].res.Stats["cache.l1.access"]++
		traced.units[len(base.apps)].digest = resultDigest(traced.units[len(base.apps)].res)
		v := judge([]*passResult{clean}, []*passResult{traced})
		if v.attempted != 2*units || len(v.failures) != 1 {
			t.Fatalf("attempted %d, failed %d; want %d, 1: %v", v.attempted, len(v.failures), 2*units, v.failures)
		}
	})
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the program prints in
// step with the names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var bench struct {
		EndToEnd []spec `json:"end_to_end"`
		PerLayer []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	r := &runner{s: evalQuick(tinyVertices), workers: 1}
	r.setup(time.Now())
	p := &passResult{wall: time.Second, peakRSS: 1 << 20}
	for name, got := range map[string]map[string]metric{
		"end_to_end": endToEnd(setupResult{}, []*passResult{p}),
		"per_layer":  layerMetrics(r, setupResult{}, []*passResult{p}, []*passResult{p}),
	} {
		want := bench.EndToEnd
		if name == "per_layer" {
			want = bench.PerLayer
		}
		if len(got) != len(want) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json declares %d", name, len(got), len(want))
		}
		for _, w := range want {
			if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s: %s printed as %+v, declared with unit %q", name, w.Name, m, w.Unit)
			}
		}
	}
}
