package trace

import (
	"bytes"
	"slices"
	"testing"

	"graphpim/internal/memmap"
)

// FuzzBuilder drives the Builder with an arbitrary op script and checks
// its output against a straightforward reference count. The Builder's
// one nontrivial behaviour — coalescing and splitting compute batches
// around the 65535-per-record cap — must never change the dynamic
// instruction count a trace expands to, and whatever it builds must
// survive a WriteV2/OpenStream round trip record for record.
//
// Script bytes decode as: low 3 bits select the op, the rest is the
// operand (compute batch length, address index, or flag bits).
func FuzzBuilder(f *testing.F) {
	f.Add(uint8(1), []byte{0, 8, 16, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(4), []byte{0xF8, 0xF8, 0xF8, 0xF8, 5, 6, 0xFF, 0})
	f.Add(uint8(2), []byte{1, 9, 17, 25, 33, 41, 49, 57, 2, 10})
	f.Fuzz(func(t *testing.T, threadSel uint8, script []byte) {
		numThreads := 1 + int(threadSel)%8
		sp := memmap.NewAddressSpace()
		prop := sp.PMRMalloc(1 << 12)
		heap := sp.AllocStruct(1 << 12)

		b := NewBuilder(sp, numThreads)
		var want uint64 // dynamic instructions the trace must expand to
		tid := 0
		for step, op := range script {
			if step >= 4096 {
				break
			}
			e := b.Thread(tid)
			arg := int(op >> 3)
			addr := prop + memmap.Addr(arg*8)
			if arg%2 == 1 {
				addr = heap + memmap.Addr(arg*8)
			}
			switch op & 7 {
			case 0:
				// Stress the coalescing/splitting paths: small batches
				// merge into the previous record, huge ones split.
				n := arg * 4099
				e.Compute(n)
				if n > 0 {
					want += uint64(n)
				}
			case 1:
				e.Load(addr, 8, arg%3 == 0)
				want++
			case 2:
				e.Store(addr, 8, arg%3 == 0)
				want++
			case 3:
				e.Atomic(HostAtomic(1+arg%7), addr, 8, arg%2 == 0, arg%3 == 0, arg%5 == 0)
				want++
			case 4:
				e.DependentCompute(arg)
				if arg > 0 {
					want += uint64(arg)
				}
			case 5:
				b.Barrier() // synchronization, not an instruction
			default:
				tid = (tid + 1) % numThreads
			}
		}

		tr := b.Build()
		if tr.NumThreads() != numThreads {
			t.Fatalf("built %d threads, want %d", tr.NumThreads(), numThreads)
		}
		if got := tr.TotalInstructions(); got != want {
			t.Fatalf("trace expands to %d instructions, script emitted %d", got, want)
		}
		for ti, th := range tr.Threads {
			for i, in := range th {
				if in.Kind == KindCompute && in.N == 0 {
					t.Fatalf("thread %d record %d: empty compute batch", ti, i)
				}
			}
		}

		var buf bytes.Buffer
		if err := WriteV2(&buf, tr, sp); err != nil {
			t.Fatalf("write: %v", err)
		}
		again, sp2, err := readAll(buf.Bytes())
		if err != nil {
			t.Fatalf("read back freshly written trace: %v", err)
		}
		if again.NumThreads() != tr.NumThreads() {
			t.Fatalf("round trip changed the thread count: %d != %d", again.NumThreads(), tr.NumThreads())
		}
		for th := range tr.Threads {
			if !slices.Equal(again.Threads[th], tr.Threads[th]) {
				t.Fatalf("round trip changed thread %d's instruction records", th)
			}
		}
		// The restored address space must classify the PMR the same way.
		if sp2.InPMR(prop) != sp.InPMR(prop) || sp2.InPMR(heap) != sp.InPMR(heap) {
			t.Fatal("round trip changed PMR classification")
		}
	})
}
