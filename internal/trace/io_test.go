package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

func buildSampleTrace(seed uint64) (*Trace, *memmap.AddressSpace) {
	sp := memmap.NewAddressSpace()
	meta := sp.AllocMeta(4096)
	prop := sp.PMRMalloc(1 << 16)
	prop2 := sp.PMRMalloc(1 << 12)
	b := NewBuilder(sp, 3)
	r := sim.NewRand(seed)
	for t := 0; t < 3; t++ {
		e := b.Thread(t)
		for i := 0; i < 50+r.Intn(50); i++ {
			switch r.Intn(5) {
			case 0:
				e.Compute(1 + r.Intn(100))
			case 1:
				e.Load(meta+memmap.Addr(r.Intn(512)*8), 8, r.Intn(2) == 0)
			case 2:
				e.Store(prop+memmap.Addr(r.Intn(512)*64), 8, false)
			case 3:
				e.Atomic(AtomicCAS, prop+memmap.Addr(r.Intn(512)*64), 8, false, true, r.Intn(3) == 0)
			case 4:
				e.Atomic(AtomicAdd, prop2+memmap.Addr(r.Intn(64)*64), 8, false, false, false)
			}
		}
	}
	b.Barrier()
	return b.Build(), sp
}

// readAll opens data with OpenStream and drains every cursor into a
// materialized trace, so round-trip tests can compare records directly.
func readAll(data []byte) (*Trace, *memmap.AddressSpace, error) {
	st, err := OpenStream(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	tr := &Trace{Threads: make([][]Instr, st.NumThreads())}
	for th := range tr.Threads {
		tr.Threads[th] = drain(st.Cursor(th))
	}
	return tr, st.Space(), nil
}

func TestTraceRoundTrip(t *testing.T) {
	tr, sp := buildSampleTrace(1)
	var buf bytes.Buffer
	if err := WriteV2(&buf, tr, sp); err != nil {
		t.Fatal(err)
	}
	got, gotSpace, err := readAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumThreads() != tr.NumThreads() {
		t.Fatalf("threads %d != %d", got.NumThreads(), tr.NumThreads())
	}
	for th := range tr.Threads {
		if len(got.Threads[th]) != len(tr.Threads[th]) {
			t.Fatalf("thread %d length differs", th)
		}
		for i := range tr.Threads[th] {
			if got.Threads[th][i] != tr.Threads[th][i] {
				t.Fatalf("thread %d instr %d: %+v != %+v", th, i, got.Threads[th][i], tr.Threads[th][i])
			}
		}
	}
	// PMR ranges must survive so POU routing is identical.
	want := sp.UCRanges()
	have := gotSpace.UCRanges()
	if len(want) != len(have) {
		t.Fatalf("UC ranges %d != %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("range %d: %v != %v", i, have[i], want[i])
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tr, sp := buildSampleTrace(seed)
		var buf bytes.Buffer
		if WriteV2(&buf, tr, sp) != nil {
			return false
		}
		got, gotSpace, err := readAll(buf.Bytes())
		if err != nil {
			return false
		}
		if got.TotalInstructions() != tr.TotalInstructions() {
			return false
		}
		// Spot-check PMR routing equivalence on every atomic address.
		for th := range tr.Threads {
			for _, in := range tr.Threads[th] {
				if in.Kind == KindAtomic && sp.InPMR(in.Addr) != gotSpace.InPMR(in.Addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
