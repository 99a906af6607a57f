package harness

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"graphpim/internal/graph"
	"graphpim/internal/machine"
	"graphpim/internal/workloads"
)

// graphEnv is the Env the graphpim facade builds for a caller's graph.
func graphEnv(g *graph.Graph) *Env {
	return &Env{Vertices: g.NumVertices(), Threads: 16, ScaledCaches: true}
}

// TestGNNFamilyExecutionIdentity: every GNN/SpMV-family workload must
// produce identical timing results AND identical functional output
// across the materialized/streamed trace pipelines — the same
// byte-identity contract the Table III suite holds (DESIGN.md §13),
// extended to the new family.
func TestGNNFamilyExecutionIdentity(t *testing.T) {
	g := graph.LDBC(512, 7)
	mks := []func() workloads.Workload{
		func() workloads.Workload { return workloads.NewSpMV(2) },
		func() workloads.Workload { return workloads.NewGNNMean(4) },
		func() workloads.Workload { return workloads.NewGNNMax(4) },
		func() workloads.Workload { return workloads.NewTCFeat(4) },
	}
	type run struct {
		res machine.Result
		out any
	}
	ref := make([]run, len(mks))
	for i, mk := range mks {
		res, out := graphEnv(g).RunGraph(g, mk(), KindGraphPIM)
		ref[i] = run{res, out.Output}
	}
	spillAll(t)
	for i, mk := range mks {
		name := mk().Info().Name
		res, out := graphEnv(g).RunGraph(g, mk(), KindGraphPIM)
		if !reflect.DeepEqual(res, ref[i].res) {
			t.Fatalf("%s/stream: timing result diverges from materialized run", name)
		}
		if !reflect.DeepEqual(out.Output, ref[i].out) {
			t.Fatalf("%s/stream: functional output diverges from materialized run", name)
		}
	}
}

// benchPipeline measures one full pipeline — functional trace
// generation plus machine replay — with the heap sampled throughout, so
// the materialized and streamed variants can be compared on both
// throughput and peak memory (the streamed pipeline trades a little
// encode/decode work for an O(trace) → O(graph + chunk windows) drop
// in footprint; BENCH_pr7.json records both sides).
func benchPipeline(b *testing.B, stream bool) {
	g := graph.LDBC(1<<15, 7)
	if stream {
		spillAll(b)
	}
	env := graphEnv(g)
	bfs := workloads.NewBFS(0)

	runtime.GC()
	var peak atomic.Uint64
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
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
			case <-time.After(10 * time.Millisecond):
			}
		}
	}()

	var instrs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := env.RunGraph(g, bfs, KindGraphPIM)
		instrs += res.Instructions
	}
	b.StopTimer()
	close(done)
	<-sampled
	b.ReportMetric(float64(peak.Load()), "peak-bytes")
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkTracePipeline is the before/after pair for the streaming
// trace pipeline: same graph, same workload, same config; only the
// trace transport differs.
func BenchmarkTracePipeline(b *testing.B) {
	b.Run("materialized", func(b *testing.B) { benchPipeline(b, false) })
	b.Run("streamed", func(b *testing.B) { benchPipeline(b, true) })
}
