package machine

import (
	"testing"

	"graphpim/internal/memmap"
	"graphpim/internal/trace"
)

// ucTrace builds a trace of independent UC property loads.
func ucTrace(n int) (*memmap.AddressSpace, *trace.Trace) {
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 22)
	b := trace.NewBuilder(sp, 1)
	e := b.Thread(0)
	for i := 0; i < n; i++ {
		e.Load(prop+memmap.Addr(i*64), 8, false)
	}
	return sp, b.Build()
}

func TestUCIssueGapThrottlesUCLoads(t *testing.T) {
	sp, tr := ucTrace(256)
	slow := GraphPIM(false)
	slow.UCIssueGap = 64
	fast := GraphPIM(false)
	fast.UCIssueGap = 0
	rs := RunSource(slow, sp, tr)
	rf := RunSource(fast, sp, tr)
	if rs.Cycles <= rf.Cycles {
		t.Fatalf("UC gap had no effect: %d vs %d", rs.Cycles, rf.Cycles)
	}
	// 256 loads at a 64-cycle interval: at least ~16k cycles.
	if rs.Cycles < 256*64 {
		t.Fatalf("gap 64 gave only %d cycles for 256 UC loads", rs.Cycles)
	}
}

func TestHostFPAtomicExtraCost(t *testing.T) {
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 20)
	b := trace.NewBuilder(sp, 1)
	for i := 0; i < 200; i++ {
		b.Thread(0).Atomic(trace.AtomicFPAdd, prop+memmap.Addr(i*64), 8, false, false, false)
	}
	tr := b.Build()
	cheap := Baseline()
	cheap.HostFPAtomicExtra = 0
	costly := Baseline()
	costly.HostFPAtomicExtra = 100
	rc := RunSource(cheap, sp, tr)
	rx := RunSource(costly, sp, tr)
	if rx.Cycles < rc.Cycles+200*90 {
		t.Fatalf("FP atomic extra not charged: %d vs %d", rx.Cycles, rc.Cycles)
	}
}

func TestUPEIChainPenaltySlowsLoadChain(t *testing.T) {
	// A pointer chase interleaved with offloading candidates: the U-PEI
	// cache check contends with the chase; GraphPIM does not.
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 22)
	structure := sp.AllocStruct(1 << 22)
	b := trace.NewBuilder(sp, 1)
	e := b.Thread(0)
	for i := 0; i < 300; i++ {
		e.Load(structure+memmap.Addr((i*7919)%(1<<20)*4), 8, true) // chase
		e.Atomic(trace.AtomicAdd, prop+memmap.Addr(i*64), 8, false, false, false)
	}
	tr := b.Build()
	up := UPEI(false)
	up.UPEICheckPenalty = 40
	gp := GraphPIM(false)
	ru := RunSource(up, sp, tr)
	rg := RunSource(gp, sp, tr)
	if ru.Cycles <= rg.Cycles {
		t.Fatalf("U-PEI check penalty invisible: upei=%d graphpim=%d", ru.Cycles, rg.Cycles)
	}
}

func TestLinkBWScaleChangesServiceRate(t *testing.T) {
	// Saturate the response link with line fills; halving bandwidth must
	// lengthen the run.
	sp := memmap.NewAddressSpace()
	structure := sp.AllocStruct(1 << 26)
	b := trace.NewBuilder(sp, 16)
	for t := 0; t < 16; t++ {
		e := b.Thread(t)
		for i := 0; i < 400; i++ {
			e.Load(structure+memmap.Addr((t*400+i)*64), 8, false)
		}
	}
	tr := b.Build()
	full := Baseline()
	half := Baseline()
	half.HMC.LinkBWScale = 0.25
	rf := RunSource(full, sp, tr)
	rh := RunSource(half, sp, tr)
	if rh.Cycles <= rf.Cycles {
		t.Fatalf("quarter link bandwidth did not slow a fill-bound run: %d vs %d", rh.Cycles, rf.Cycles)
	}
}

func TestFUCountMattersUnderExtremeAtomicPressure(t *testing.T) {
	// Hammer a single vault with atomics from all cores: with one FU the
	// run must be no faster than with sixteen.
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 24)
	b := trace.NewBuilder(sp, 16)
	for t := 0; t < 16; t++ {
		e := b.Thread(t)
		for i := 0; i < 200; i++ {
			// Same vault: stride NumVaults lines.
			e.Atomic(trace.AtomicAdd, prop+memmap.Addr(((t*200+i)*32)*64), 8, false, false, false)
		}
	}
	tr := b.Build()
	many := GraphPIM(false)
	one := GraphPIM(false)
	one.HMC.IntFUsPerVault = 1
	rm := RunSource(many, sp, tr)
	ro := RunSource(one, sp, tr)
	if ro.Cycles < rm.Cycles {
		t.Fatalf("1 FU faster than 16: %d vs %d", ro.Cycles, rm.Cycles)
	}
}

func TestMultiCubeChainPreservesCorrectByteRouting(t *testing.T) {
	sp, tr := ucTrace(64)
	single := GraphPIM(false)
	quad := GraphPIM(false)
	quad.HMCCubes = 4
	rs := RunSource(single, sp, tr)
	rq := RunSource(quad, sp, tr)
	if rs.Instructions != rq.Instructions {
		t.Fatal("chaining changed retired instruction count")
	}
	if rq.Cycles == 0 {
		t.Fatal("chained run produced no cycles")
	}
}

func TestMultiCubeFarHopsCostSomething(t *testing.T) {
	// A stream hitting only the far cube of a 4-chain pays hop latency
	// on every access relative to the near cube.
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 22)
	build := func(pageOffset int) *trace.Trace {
		b := trace.NewBuilder(sp, 1)
		e := b.Thread(0)
		for i := 0; i < 64; i++ {
			// Page-aligned addresses targeting one chain position.
			e.Atomic(trace.AtomicAdd, prop+memmap.Addr(pageOffset*4096+i*16*4096), 8, true, true, false)
		}
		return b.Build()
	}
	cfg := GraphPIM(false)
	cfg.HMCCubes = 4
	near := RunSource(cfg, sp, build(0)) // cube 0 pages (stride 16 pages keeps cube 0)
	far := RunSource(cfg, sp, build(3))  // cube 3 pages
	if far.Cycles <= near.Cycles {
		t.Fatalf("far-cube stream (%d) not slower than near (%d)", far.Cycles, near.Cycles)
	}
}
