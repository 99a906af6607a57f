package harness

import (
	"context"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

// spillAll lowers the spill bound so every trace built until the test
// or benchmark ends takes the spill path, whatever the graph's size.
func spillAll(tb testing.TB) {
	prev := maxMaterializedEdges
	maxMaterializedEdges = -1
	tb.Cleanup(func() { maxMaterializedEdges = prev })
}

// requireSpilled fails unless every trace env built is a spilled stream.
func requireSpilled(t *testing.T, env *Env) {
	t.Helper()
	env.mu.Lock()
	defer env.mu.Unlock()
	if len(env.traces) == 0 {
		t.Fatal("env built no traces")
	}
	for key, s := range env.traces {
		if _, ok := s.tr.src.(*trace.Stream); !ok {
			t.Fatalf("trace %v materialized under the spill seam", key)
		}
	}
}

// renderAll runs exps in env and concatenates their rendered tables.
func renderAll(t *testing.T, env *Env, exps []Experiment) string {
	t.Helper()
	var b strings.Builder
	for _, ex := range exps {
		tb, err := env.RunExperiment(context.Background(), ex)
		if err != nil {
			t.Fatalf("%s: %v", ex.ID, err)
		}
		b.WriteString(ex.ID + "\n" + tb.String())
	}
	return b.String()
}

// TestStreamTableIdentity is the harness-level gate for the spill
// pipeline: the same experiment must render byte-identical tables with
// every trace materialized and with every trace spilled. fig4 replays a
// stripped trace (the atomic → load+store view), so this also covers the
// StripSource adapter. One experiment keeps the harness race suite inside
// its timeout; TestStreamTableIdentityAll covers every quick experiment.
func TestStreamTableIdentity(t *testing.T) {
	ex, err := ByID("fig4-atomic-overhead")
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, testEnv(1), []Experiment{ex})
	spillAll(t)
	env := testEnv(1)
	defer env.Close()
	got := renderAll(t, env, []Experiment{ex})
	requireSpilled(t, env)
	if got != want {
		t.Fatalf("table differs when spilled:\n--- materialized ---\n%s\n--- spilled ---\n%s", want, got)
	}
}

// TestStreamTableIdentityAll renders every quick experiment — the paper
// reproductions and the extras — with every trace materialized and with
// every trace spilled, and requires byte-identical tables. It takes
// minutes, so it only runs when GRAPHPIM_STREAM_SMOKE=1 (make
// smoke-stream).
func TestStreamTableIdentityAll(t *testing.T) {
	if os.Getenv("GRAPHPIM_STREAM_SMOKE") == "" {
		t.Skip("set GRAPHPIM_STREAM_SMOKE=1 to compare every quick experiment spilled and materialized")
	}
	exps := append(All(), Extras()...)
	quick := func() *Env {
		env := QuickEnv()
		env.Parallelism = runtime.NumCPU()
		return env
	}
	want := renderAll(t, quick(), exps)
	spillAll(t)
	env := quick()
	defer env.Close()
	got := renderAll(t, env, exps)
	requireSpilled(t, env)
	if got != want {
		t.Fatalf("tables differ when spilled:\n--- materialized ---\n%s\n--- spilled ---\n%s", want, got)
	}
}

// TestStreamSmoke is the million-vertex streaming smoke: a 1M+-vertex
// BFS, which spills by graph size alone with no seam or option set,
// traced through the spill pipeline and replayed end to end, with the
// heap sampled throughout. It asserts the pipeline's reason to exist —
// peak heap stays below what materializing the trace alone would cost —
// and that the streamed replay retires exactly the instruction count the
// stream footer carries.
//
// It allocates a multi-gigabyte-scale workload's worth of work, so it
// only runs when GRAPHPIM_STREAM_SMOKE=1 (CI runs it in a dedicated
// memory-bounded job; see .github/workflows).
func TestStreamSmoke(t *testing.T) {
	if os.Getenv("GRAPHPIM_STREAM_SMOKE") == "" {
		t.Skip("set GRAPHPIM_STREAM_SMOKE=1 to run the 1M-vertex streaming smoke")
	}
	env := &Env{
		Vertices:     1 << 20,
		Seed:         7,
		Threads:      16,
		ScaledCaches: true,
	}
	defer env.Close()

	// Sample the live heap while the pipeline runs. HeapAlloc between
	// GCs overshoots the live set, so the bound below is generous; the
	// materialized pipeline blows through it anyway (see BENCH_pr7.json
	// for measured before/after peaks).
	var peak atomic.Uint64
	done := make(chan struct{})
	sampler := make(chan struct{})
	go func() {
		defer close(sampler)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			for {
				p := peak.Load()
				if ms.HeapAlloc <= p || peak.CompareAndSwap(p, ms.HeapAlloc) {
					break
				}
			}
			select {
			case <-done:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()

	w, err := workloads.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	res := env.RunSized(w, env.Vertices, KindGraphPIM)
	close(done)
	<-sampler

	st, ok := env.Trace(w, env.Vertices).src.(*trace.Stream)
	if !ok {
		t.Fatal("the LDBC-1M trace did not spill")
	}
	if res.Instructions != st.TotalInstructions() {
		t.Fatalf("retired %d instructions, stream carries %d", res.Instructions, st.TotalInstructions())
	}

	// The would-be materialized trace: 16 bytes per record across all
	// threads. Peak heap must stay below graph + a fraction of that —
	// the streamed pipeline's whole point. The graph itself (CSR +
	// properties) is small next to the trace at this scale.
	materializedBytes := st.TotalRecords() * 16
	if p := peak.Load(); p >= materializedBytes {
		t.Fatalf("peak heap %d B not below would-be materialized trace %d B", p, materializedBytes)
	}
	t.Logf("1M-vertex BFS: %d records (%d B materialized), peak heap %d B, %d cycles",
		st.TotalRecords(), materializedBytes, peak.Load(), res.Cycles)
}
