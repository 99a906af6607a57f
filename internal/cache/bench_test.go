package cache

import (
	"testing"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// fixedBackend is a memory with a constant latency that records nothing,
// so benchmarks time the hierarchy alone.
type fixedBackend struct{}

func (fixedBackend) ReadLine(memmap.Addr, uint64) uint64 { return 100 }
func (fixedBackend) WriteLine(memmap.Addr, uint64)       {}

// quickGeometry is the cache hierarchy of the quick experiment scale
// (harness.QuickEnv): 16 cores, Table IV L1, L2 and L3 shrunk to 128KB.
func quickGeometry() Config {
	cfg := DefaultConfig(16)
	cfg.L2Size = 128 << 10
	cfg.L3Size = 128 << 10
	return cfg
}

// BenchmarkHierarchyAccess times Hierarchy.Access on the quick geometry
// for two precomputed streams, 16 cores round robin, one write in five:
// miss-heavy draws lines uniformly from a 64MB footprint, so most
// accesses miss every level and evict; hit-heavy keeps each core inside
// its own 4KB slice (64KB in all, inside the inclusive L3), so after
// warm-up every access hits in L1.
func BenchmarkHierarchyAccess(b *testing.B) {
	const streamLen = 1 << 14
	for _, bc := range []struct {
		name string
		addr func(r *sim.Rand, core int) memmap.Addr
	}{
		{"miss-heavy", func(r *sim.Rand, _ int) memmap.Addr {
			return memmap.Addr(r.Intn(1<<20) * 64)
		}},
		{"hit-heavy", func(r *sim.Rand, core int) memmap.Addr {
			return memmap.Addr(core<<20 + r.Intn(64)*64)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := quickGeometry()
			h := New(cfg, fixedBackend{}, sim.NewStats())
			r := sim.NewRand(5)
			addrs := make([]memmap.Addr, streamLen)
			writes := make([]bool, streamLen)
			for i := range addrs {
				addrs[i] = bc.addr(r, i%cfg.NumCores)
				writes[i] = r.Intn(5) == 0
			}
			for i := range addrs { // warm the caches
				h.Access(i%cfg.NumCores, addrs[i], writes[i], uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & (streamLen - 1)
				h.Access(j%cfg.NumCores, addrs[j], writes[j], uint64(i))
			}
		})
	}
}
