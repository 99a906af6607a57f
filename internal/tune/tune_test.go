package tune

import (
	"math"
	"strings"
	"testing"

	"graphpim/internal/gframe"
	"graphpim/internal/graph"
	"graphpim/internal/hmcatomic"
	"graphpim/internal/pou"
	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

// capsFunc adapts a function to the pou.Caps interface.
type capsFunc func(hmcatomic.Op) bool

func (f capsFunc) CanOffload(op hmcatomic.Op) bool { return f(op) }

var (
	// allCaps offloads everything (like the HMC backend with FP).
	allCaps = pou.Substrate{Caps: capsFunc(func(hmcatomic.Op) bool { return true })}
	// noPIM offloads nothing (like the DDR backend).
	noPIM = pou.Substrate{Caps: capsFunc(func(hmcatomic.Op) bool { return false })}
	// intOnly offloads everything but FP commands (like hmc without the
	// proposed extension).
	intOnly = pou.Substrate{Caps: capsFunc(func(op hmcatomic.Op) bool { return !hmcatomic.IsFloat(op) })}
)

func skewedFeatures() Features {
	return Features{
		Vertices: 1024, Edges: 30000, DegreeCV: 1.4,
		PropertyBytes: 1 << 20, LLCBytes: 128 << 10,
		AtomicsPerKiloInstr: 80,
	}
}

func TestChooseVetoOrder(t *testing.T) {
	f := skewedFeatures()

	// Dense atomics over an LLC-exceeding footprint on a capable
	// substrate: PIM.
	if d := Choose(f, allCaps); d.Placement != PlacePIM {
		t.Fatalf("capable substrate placed %s (%s), want pim", d.Placement, d.Reason)
	}

	// No PIM units at all: host, regardless of everything else.
	if d := Choose(f, noPIM); d.Placement != PlaceHost {
		t.Fatalf("PIM-less substrate placed %s, want host", d.Placement)
	}

	// FP workload without a near-memory FP executor and no bundle tier:
	// host. With a bundle tier the veto lifts.
	ext := f
	ext.Extended = true
	if d := Choose(ext, intOnly); d.Placement != PlaceHost {
		t.Fatalf("FP workload on int-only substrate placed %s, want host", d.Placement)
	}
	bundled := intOnly
	bundled.Bundle = true
	if d := Choose(ext, bundled); d.Placement != PlacePIM {
		t.Fatalf("FP workload on bundled substrate placed %s, want pim", d.Placement)
	}

	// Sparse atomics: host — offload cannot pay.
	sparse := f
	sparse.AtomicsPerKiloInstr = MinAtomicsPerKiloInstr / 2
	if d := Choose(sparse, allCaps); d.Placement != PlaceHost {
		t.Fatalf("sparse-atomic run placed %s, want host", d.Placement)
	}

	// Cache-resident property footprint: the hybrid keeps the locality.
	resident := f
	resident.PropertyBytes = resident.LLCBytes / 2
	if d := Choose(resident, allCaps); d.Placement != PlaceUPEI {
		t.Fatalf("cache-resident run placed %s, want upei", d.Placement)
	}

	// Every decision must explain itself.
	for _, sub := range []pou.Substrate{allCaps, noPIM} {
		if d := Choose(f, sub); d.Reason == "" {
			t.Fatalf("placement %s has no reason", d.Placement)
		}
	}
}

func TestProfileAndTotalCounts(t *testing.T) {
	g := graph.LDBC(512, 7)
	fw := gframe.New(g, 4, gframe.DefaultCostModel())
	workloads.NewGNNMean(4).Run(fw)
	fw.Barrier()
	tr := fw.Trace()

	counts := TotalCounts(tr)
	if counts.Instrs == 0 || counts.Atomics == 0 {
		t.Fatalf("empty counts: %+v", counts)
	}
	// Cross-check against a full scan of the source.
	var instrs, atomics uint64
	for th := 0; th < tr.NumThreads(); th++ {
		cur := tr.Cursor(th)
		for win := cur.NextWindow(); win != nil; win = cur.NextWindow() {
			for _, in := range win {
				switch in.Kind {
				case trace.KindCompute:
					instrs += uint64(in.N)
				case trace.KindBarrier:
				case trace.KindAtomic:
					instrs++
					atomics++
				default:
					instrs++
				}
			}
		}
	}
	if counts.Instrs != instrs || counts.Atomics != atomics {
		t.Fatalf("TotalCounts = %+v, scan found instrs=%d atomics=%d", counts, instrs, atomics)
	}

	_, _, prop := fw.Space().Footprint()
	f := Profile(g, prop, 128<<10, counts, false)
	if f.Vertices != 512 || f.Edges != g.NumEdges() {
		t.Fatalf("profile dimensions wrong: %+v", f)
	}
	if f.DegreeCV <= 0 {
		t.Fatal("LDBC degree skew not detected")
	}
	if f.AtomicsPerKiloInstr != 1000*float64(atomics)/float64(instrs) {
		t.Fatalf("atomic density %f inconsistent", f.AtomicsPerKiloInstr)
	}
	if want := float64(prop) / float64(128<<10); f.FootprintRatio() != want {
		t.Fatalf("footprint ratio %f, want %f", f.FootprintRatio(), want)
	}
}

func TestDegreeCVZeroOnRegularGraph(t *testing.T) {
	// A ring has uniform out-degree: stddev 0, so CV must be 0.
	b := graph.NewBuilder(16)
	for v := 0; v < 16; v++ {
		b.AddEdge(graph.VID(v), graph.VID((v+1)%16))
	}
	g := b.Build(false)
	f := Profile(g, 0, 0, trace.Counts{}, false)
	if f.DegreeCV != 0 {
		t.Fatalf("regular graph CV = %f, want 0", f.DegreeCV)
	}
	if f.FootprintRatio() != 0 {
		t.Fatal("unknown LLC must give ratio 0")
	}
}

func TestDecisionCounters(t *testing.T) {
	d := Decision{Placement: PlaceUPEI, Features: Features{
		DegreeCV: 1.234, PropertyBytes: 256 << 10, LLCBytes: 128 << 10,
		AtomicsPerKiloInstr: 42.5,
	}}
	c := d.Counters()
	if c["tune.placement"] != 2 {
		t.Fatalf("upei placement code = %d, want 2", c["tune.placement"])
	}
	if c["tune.degree_cv_milli"] != 1234 {
		t.Fatalf("degree CV milli = %d, want 1234", c["tune.degree_cv_milli"])
	}
	if c["tune.footprint_ratio_milli"] != 2000 {
		t.Fatalf("footprint milli = %d, want 2000", c["tune.footprint_ratio_milli"])
	}
	if c["tune.atomics_per_kinstr_milli"] != 42500 {
		t.Fatalf("density milli = %d, want 42500", c["tune.atomics_per_kinstr_milli"])
	}
	if math.IsNaN(d.Features.FootprintRatio()) {
		t.Fatal("ratio NaN")
	}
	for k := range c {
		if !strings.HasPrefix(k, "tune.") {
			t.Fatalf("counter %q outside the tune namespace", k)
		}
	}
}
