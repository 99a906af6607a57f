package cpu

import (
	"testing"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
	"graphpim/internal/trace"
)

// mixedStream is a synthetic single-thread trace in the proportions of
// the graph kernels: short compute batches between independent and
// dependent loads, stores, and offloaded atomics with and without a used
// return value.
func mixedStream(records int) []trace.Instr {
	sp := memmap.NewAddressSpace()
	structure := sp.AllocStruct(1 << 20)
	prop := sp.PMRMalloc(1 << 20)
	b := trace.NewBuilder(sp, 1)
	e := b.Thread(0)
	r := sim.NewRand(3)
	for i := 0; i < records; i++ {
		switch r.Intn(8) {
		case 0, 1:
			e.Compute(1 + r.Intn(8))
		case 2, 3:
			e.Load(structure+memmap.Addr(r.Intn(1<<17)*8), 8, false)
		case 4:
			e.Load(prop+memmap.Addr(r.Intn(1<<17)*8), 8, true)
		case 5:
			e.Store(prop+memmap.Addr(r.Intn(1<<17)*8), 8, false)
		case 6, 7:
			e.Atomic(trace.AtomicAdd, prop+memmap.Addr(r.Intn(1<<17)*8), 8,
				false, r.Intn(4) == 0, false)
		}
	}
	return b.Build().Threads[0]
}

// BenchmarkCoreTick measures cpu.Core.Tick alone: one core replaying
// mixedStream against the constant-latency flatMem, one op per Tick at
// the wake time it returned. A finished core is rebuilt with the timer
// stopped, so the loop itself must not allocate.
func BenchmarkCoreTick(b *testing.B) {
	stream := mixedStream(1 << 16)
	st := sim.NewStats()
	c := NewCore(0, DefaultConfig(), flatMem{}, stream, st)
	var now, prev, retired uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := c.Tick(now, now-prev)
		if c.Done() {
			b.StopTimer()
			retired += c.Retired()
			c = NewCore(0, DefaultConfig(), flatMem{}, stream, st)
			now, prev = 0, 0
			b.StartTimer()
			continue
		}
		if next <= now {
			next = now + 1
		}
		prev, now = now, next
	}
	b.ReportMetric(float64(retired+c.Retired())/float64(b.N), "instrs/op")
}
