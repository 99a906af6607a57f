package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"unsafe"

	"graphpim/internal/gframe"
	"graphpim/internal/graph"
	"graphpim/internal/harness"
	"graphpim/internal/machine"
	"graphpim/internal/memmap"
	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

// threads is the simulated core count of every cell, as in the harness's
// QuickEnv and DefaultEnv.
const threads = 16

// cell is one machine configuration a workload's traces replay under.
type cell struct {
	kind   harness.ConfigKind
	memory string // a mem backend kind; "hmc" is the default cube chain
}

func (c cell) String() string { return string(c.kind) + "/" + c.memory }

// suite is one benchmark workload: a graph, the applications that run on
// it, and what happens to each application's trace. Every unit of work
// goes through the layers' public functions, never through the harness
// engine's memo and record code.
type suite struct {
	name     string
	vertices int
	apps     []workloads.Workload
	// cells are the replays each application's trace gets; none means the
	// workload stops at the trace.
	cells []cell
	// stream spills the trace through the bounded v2 pipeline
	// (gframe.NewStreaming) instead of materializing it.
	stream bool
	// roundTrip writes each materialized trace as v2 to an unlinked file,
	// reopens it, and checks every decoded window against the records
	// emitted.
	roundTrip bool
}

// evalCells are the fig7-speedup cells (three kinds on hmc) followed by
// the ext-backend-shootout cells (Baseline and GraphPIM per other
// substrate).
var evalCells = []cell{
	{harness.KindBaseline, "hmc"}, {harness.KindUPEI, "hmc"}, {harness.KindGraphPIM, "hmc"},
	{harness.KindBaseline, "ddr"}, {harness.KindGraphPIM, "ddr"},
	{harness.KindBaseline, "lpddr"}, {harness.KindGraphPIM, "lpddr"},
	{harness.KindBaseline, "vault"}, {harness.KindGraphPIM, "vault"},
}

// suites returns the benchmark workloads at their measured sizes.
func suites() []suite {
	return []suite{
		evalQuick(1024),
		{
			name:     "ldbc-stream",
			vertices: 16384,
			apps:     []workloads.Workload{workloads.NewBFS(0), workloads.NewDC()},
			cells:    []cell{{harness.KindBaseline, "hmc"}, {harness.KindGraphPIM, "hmc"}},
			stream:   true,
		},
		{
			name:      "trace-gen",
			vertices:  4096,
			apps:      workloads.Registry(),
			roundTrip: true,
		},
	}
}

// evalQuick is the eval-quick workload at the given graph size: the
// EvalSet under every evalCells configuration, from materialized traces.
func evalQuick(vertices int) suite {
	return suite{name: "eval-quick", vertices: vertices, apps: workloads.EvalSet(), cells: evalCells}
}

func suiteByName(name string) (suite, error) {
	var names []string
	for _, s := range suites() {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return suite{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// env is the harness environment whose Config assembles a cell's
// machine: scaled caches sized by the graph, and the cell's memory.
func (s suite) env(seed uint64, memory string) *harness.Env {
	return &harness.Env{Vertices: s.vertices, Seed: seed, Threads: threads,
		ScaledCaches: true, Memory: memory}
}

// emitted is one application's finished functional run and trace.
type emitted struct {
	app     workloads.Workload
	space   *memmap.AddressSpace
	src     trace.Source // nil once a round trip has checked and dropped it
	spill   *os.File     // backs src on streamed workloads
	records uint64
	instrs  uint64
	// bytes is the encoded trace size: the spill or v2 file, or the
	// in-memory record size of a materialized trace.
	bytes uint64
}

// replayFunc runs one machine over a trace; tests substitute a faulty one.
type replayFunc func(machine.Config, *memmap.AddressSpace, trace.Source) machine.Result

// emit runs e.app on g, checks its functional output, and, on a
// round-trip workload, pushes the trace through the v2 codec. It fills in
// e as it goes, so a caller can release e.spill whatever the outcome.
func (s suite) emit(sp *spanner, g *graph.Graph, e *emitted, dir string) error {
	app := e.app
	var res workloads.Result
	var tr *trace.Trace
	id := sp.begin("emit")
	if s.stream {
		f, err := tempFile(dir)
		if err != nil {
			return err
		}
		e.spill = f
		sw, err := trace.NewStreamWriter(f, threads, trace.DefaultChunkRecords)
		if err != nil {
			return fmt.Errorf("starting stream writer: %w", err)
		}
		fw := gframe.NewStreaming(g, threads, gframe.DefaultCostModel(), sw)
		res = app.Run(fw)
		fw.ReleaseProperties()
		st, err := fw.FinalizeStream()
		if err != nil {
			return fmt.Errorf("finalizing stream: %w", err)
		}
		e.space, e.src = fw.Space(), st
		e.records, e.instrs = st.TotalRecords(), st.TotalInstructions()
		info, err := f.Stat()
		if err != nil {
			return err
		}
		e.bytes = uint64(info.Size())
	} else {
		fw := gframe.New(g, threads, gframe.DefaultCostModel())
		res = app.Run(fw)
		tr = fw.Trace()
		e.space, e.src = fw.Space(), tr
		for _, recs := range tr.Threads {
			e.records += uint64(len(recs))
		}
		e.instrs = tr.TotalInstructions()
		e.bytes = e.records * uint64(unsafe.Sizeof(trace.Instr{}))
	}
	sp.end(id)

	id = sp.begin("verify")
	err := checkOutput(app, g, res)
	sp.end(id)
	if err != nil {
		return err
	}
	if s.roundTrip {
		n, err := roundTrip(sp, tr, e.space, dir)
		if err != nil {
			return err
		}
		e.bytes, e.src = n, nil
	}
	return nil
}

// roundTrip writes tr as v2 to an unlinked file, reopens it as a stream,
// and compares every decoded window with the records emitted. It returns
// the encoded size.
func roundTrip(sp *spanner, tr *trace.Trace, space *memmap.AddressSpace, dir string) (uint64, error) {
	f, err := tempFile(dir)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	id := sp.begin("trace.encode")
	err = trace.WriteV2(f, tr, space)
	sp.end(id)
	if err != nil {
		return 0, fmt.Errorf("writing v2: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}

	id = sp.begin("trace.decode")
	defer sp.end(id)
	st, err := trace.OpenStream(f)
	if err != nil {
		return 0, fmt.Errorf("reopening v2: %w", err)
	}
	if st.NumThreads() != tr.NumThreads() || st.TotalInstructions() != tr.TotalInstructions() {
		return 0, fmt.Errorf("decoded trace has %d threads / %d instrs, emitted %d / %d",
			st.NumThreads(), st.TotalInstructions(), tr.NumThreads(), tr.TotalInstructions())
	}
	for t, want := range tr.Threads {
		cur := st.Cursor(t)
		for w := cur.NextWindow(); len(w) > 0; w = cur.NextWindow() {
			if len(w) > len(want) || !slices.Equal(w, want[:len(w)]) {
				return 0, fmt.Errorf("thread %d: decoded records differ from those emitted", t)
			}
			want = want[len(w):]
		}
		if len(want) > 0 {
			return 0, fmt.Errorf("thread %d: %d emitted records never decoded", t, len(want))
		}
	}
	return uint64(info.Size()), nil
}

// replay simulates one cell over an emitted trace and checks that the
// machine retired every instruction the trace holds.
func (s suite) replay(sp *spanner, run replayFunc, seed uint64, e *emitted, c cell) (machine.Result, error) {
	cfg := s.env(seed, c.memory).Config(c.kind, e.app)
	id := sp.begin("machine.replay")
	res := run(cfg, e.space, e.src)
	sp.end(id)
	if res.Instructions != e.instrs {
		return res, fmt.Errorf("retired %d instructions, trace holds %d", res.Instructions, e.instrs)
	}
	return res, nil
}

// tempFile creates an unlinked scratch file in dir: the open descriptor
// keeps it alive, and no exit path can leave it behind.
func tempFile(dir string) (*os.File, error) {
	f, err := os.CreateTemp(dir, "trace-*.gpimtrc2")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// errMismatch reports a functional output that differs from the
// reference implementation.
var errMismatch = errors.New("functional output differs from the reference")

// checkOutput compares a workload's functional output with its
// workloads.Ref* implementation. Workloads without a reference pass.
func checkOutput(app workloads.Workload, g *graph.Graph, res workloads.Result) error {
	var got, want any
	switch out := res.Output.(type) {
	case workloads.BFSOutput:
		got, want = out.Depth, workloads.RefBFS(g, 0)
	case workloads.SSSPOutput:
		got, want = out.Dist, workloads.RefSSSP(g, 0)
	case workloads.CCompOutput:
		got, want = out.Label, workloads.RefCComp(g)
	case workloads.DCOutput:
		got, want = out.Centrality, workloads.RefDC(g)
	case workloads.KCoreOutput:
		got, want = out.CoreNumber, workloads.RefKCore(g, 3)
	case workloads.TCOutput:
		got, want = out.Total, workloads.RefTC(g)
	case workloads.PRankOutput:
		if !closeTo(out.Rank, workloads.RefPRank(g, 3), 1e-9) {
			return fmt.Errorf("%s: %w", app.Info().Name, errMismatch)
		}
		return nil
	case workloads.GNNOutput:
		switch app.Info().Name {
		case "GNNMean":
			got, want = out.Feat, workloads.RefGNNMean(g, workloads.FeatDims)
		case "GNNMax":
			got, want = out.Feat, workloads.RefGNNMax(g, workloads.FeatDims)
		default:
			return nil
		}
	default:
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: %w", app.Info().Name, errMismatch)
	}
	return nil
}

func closeTo(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
