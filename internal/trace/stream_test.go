package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// emitSample drives one deterministic emission sequence into b, so the
// same workload can be fed to a materializing and a streaming Builder
// and the two record sequences compared. It exercises every Emitter
// method, compute coalescing across flush boundaries (lots of small
// adjacent batches), batch saturation (>65535), and barriers.
func emitSample(b *Builder, seed uint64, meta, prop, prop2 memmap.Addr, epochs, per int) {
	r := sim.NewRand(seed)
	for ep := 0; ep < epochs; ep++ {
		for t := 0; t < b.NumThreads(); t++ {
			e := b.Thread(t)
			for i := 0; i < per; i++ {
				switch r.Intn(9) {
				case 0:
					e.Compute(1 + r.Intn(40))
				case 1:
					e.Compute(70000) // forces a 65535 split
				case 2:
					e.Load(meta+memmap.Addr(r.Intn(512)*8), 8, r.Intn(2) == 0)
				case 3:
					e.Store(prop+memmap.Addr(r.Intn(512)*64), 8, false)
				case 4:
					e.Atomic(AtomicCAS, prop+memmap.Addr(r.Intn(512)*64), 8, false, true, r.Intn(3) == 0)
				case 5:
					e.Atomic(AtomicAdd, prop2+memmap.Addr(r.Intn(64)*64), 8, false, false, false)
				case 6:
					e.Load(prop+memmap.Addr(r.Intn(512)*64), 8, true)
					e.DependentCompute(1 + r.Intn(5))
				case 7:
					// Adjacent small batches must coalesce identically even
					// when a chunk flush lands between them.
					e.Compute(1)
					e.Compute(2)
					e.Compute(3)
				case 8:
					e.Atomic(AtomicMax, prop2+memmap.Addr(r.Intn(64)*64), 8, false, true, r.Intn(2) == 0)
				}
			}
		}
		b.Barrier()
	}
}

// sampleSpace builds the address space the emission sequence targets.
func sampleSpace() (*memmap.AddressSpace, memmap.Addr, memmap.Addr, memmap.Addr) {
	sp := memmap.NewAddressSpace()
	meta := sp.AllocMeta(4096)
	prop := sp.PMRMalloc(1 << 16)
	prop2 := sp.PMRMalloc(1 << 12)
	return sp, meta, prop, prop2
}

// materializedSample runs emitSample through a materializing Builder.
func materializedSample(seed uint64, epochs, per int) (*Trace, *memmap.AddressSpace) {
	sp, meta, prop, prop2 := sampleSpace()
	b := NewBuilder(sp, 3)
	emitSample(b, seed, meta, prop, prop2, epochs, per)
	return b.Build(), sp
}

// streamedSample runs the same emissions through a streaming Builder
// spilling to a real file in t.TempDir, at a deliberately tiny chunk
// size so every identity test crosses many chunk boundaries.
func streamedSample(t *testing.T, seed uint64, epochs, per, chunkRecords int) *Stream {
	t.Helper()
	sp, meta, prop, prop2 := sampleSpace()
	f, err := os.Create(filepath.Join(t.TempDir(), "spill.gpimtrc2"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	sw, err := NewStreamWriter(f, 3, chunkRecords)
	if err != nil {
		t.Fatal(err)
	}
	b := NewStreamingBuilder(sp, sw)
	emitSample(b, seed, meta, prop, prop2, epochs, per)
	st, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("Finalize returned nil Stream for a file-backed writer")
	}
	return st
}

// drain concatenates every window of a cursor.
func drain(c Cursor) []Instr {
	var out []Instr
	for w := c.NextWindow(); w != nil; w = c.NextWindow() {
		out = append(out, w...)
	}
	return out
}

func diffRecords(t *testing.T, label string, got, want []Instr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

// TestStreamingBuilderIdentity is the core streaming contract: a
// streaming Builder fed the same emissions as a materializing one must
// reproduce the exact record sequence — chunk flushes, compute-tail
// retention, and barrier checkpoints must be invisible in the output.
func TestStreamingBuilderIdentity(t *testing.T) {
	for _, chunk := range []int{32, 257, DefaultChunkRecords} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			want, _ := materializedSample(7, 3, 120)
			st := streamedSample(t, 7, 3, 120, chunk)

			if st.NumThreads() != want.NumThreads() {
				t.Fatalf("threads %d != %d", st.NumThreads(), want.NumThreads())
			}
			if st.TotalInstructions() != want.TotalInstructions() {
				t.Fatalf("instructions %d != %d", st.TotalInstructions(), want.TotalInstructions())
			}
			for k := KindCompute; k <= KindBarrier; k++ {
				if st.CountKind(k) != want.CountKind(k) {
					t.Fatalf("kind %v count %d != %d", k, st.CountKind(k), want.CountKind(k))
				}
			}
			wantAtomics := want.AtomicsByKind()
			for a, n := range st.AtomicsByKind() {
				if wantAtomics[a] != n {
					t.Fatalf("atomic %v count %d != %d", a, n, wantAtomics[a])
				}
			}
			for th := range want.Threads {
				cur := st.Cursor(th)
				if got := cur.Counts(); got != CountRecords(want.Threads[th]) {
					t.Fatalf("thread %d counts %+v != %+v", th, got, CountRecords(want.Threads[th]))
				}
				diffRecords(t, fmt.Sprintf("thread %d", th), drain(cur), want.Threads[th])
				// Cursor invariants must hold after a full drain too.
				if b, ok := cur.(interface{ AuditBounds() error }); ok {
					if err := b.AuditBounds(); err != nil {
						t.Fatalf("thread %d audit: %v", th, err)
					}
				}
			}
		})
	}
}

// TestWriteV2RoundTrip checks the persisted v2 format through a real
// file: records and PMR ranges must survive WriteV2 and OpenStream
// exactly, and every cursor's counts must match its records.
func TestWriteV2RoundTrip(t *testing.T) {
	tr, sp := buildSampleTrace(1)
	f, err := os.Create(filepath.Join(t.TempDir(), "trace.gpimtrc2"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := WriteV2(f, tr, sp); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumThreads() != tr.NumThreads() {
		t.Fatalf("threads %d != %d", st.NumThreads(), tr.NumThreads())
	}
	for th := range tr.Threads {
		cur := st.Cursor(th)
		if got := cur.Counts(); got != CountRecords(tr.Threads[th]) {
			t.Fatalf("thread %d counts %+v != %+v", th, got, CountRecords(tr.Threads[th]))
		}
		diffRecords(t, fmt.Sprintf("thread %d", th), drain(cur), tr.Threads[th])
	}
	want, have := sp.UCRanges(), st.Space().UCRanges()
	if len(want) != len(have) {
		t.Fatalf("UC ranges %d != %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("range %d: %v != %v", i, have[i], want[i])
		}
	}
}

// TestOpenStreamMatchesRead checks a log written by a streaming Builder
// (barrier checkpoints, tiny chunks) against the same emissions through
// a materializing Builder: OpenStream must see the same records, counts
// and PMR ranges. It also covers the Finalize contract for non-seekable
// writers (nil Stream).
func TestOpenStreamMatchesRead(t *testing.T) {
	sp, meta, prop, prop2 := sampleSpace()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, 3, 48)
	if err != nil {
		t.Fatal(err)
	}
	b := NewStreamingBuilder(sp, sw)
	emitSample(b, 3, meta, prop, prop2, 2, 80)
	st0, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if st0 != nil {
		t.Fatal("Finalize returned a Stream for a non-ReaderAt writer")
	}

	tr, trSpace := materializedSample(3, 2, 80)
	st, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.NumThreads() != tr.NumThreads() {
		t.Fatalf("threads %d != %d", st.NumThreads(), tr.NumThreads())
	}
	for th := range tr.Threads {
		cur := st.Cursor(th)
		if got := cur.Counts(); got != CountRecords(tr.Threads[th]) {
			t.Fatalf("thread %d counts %+v != %+v", th, got, CountRecords(tr.Threads[th]))
		}
		diffRecords(t, fmt.Sprintf("thread %d", th), drain(cur), tr.Threads[th])
	}
	want, have := trSpace.UCRanges(), st.Space().UCRanges()
	if len(want) != len(have) {
		t.Fatalf("UC ranges %d != %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("range %d: %v != %v", i, have[i], want[i])
		}
	}
}

// TestStripSourceMatchesStripAtomics pins the streamed strip adapter to
// the materialized reference: both views must expand each atomic into
// the same load+store pair with identical counts.
func TestStripSourceMatchesStripAtomics(t *testing.T) {
	tr, sp := buildSampleTrace(5)
	var buf bytes.Buffer
	if err := WriteV2(&buf, tr, sp); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := tr.StripAtomics()
	got := StripSource(st)
	if got.NumThreads() != want.NumThreads() {
		t.Fatalf("threads %d != %d", got.NumThreads(), want.NumThreads())
	}
	for th := 0; th < want.NumThreads(); th++ {
		gc, wc := got.Cursor(th), want.Cursor(th)
		if gc.Counts() != wc.Counts() {
			t.Fatalf("thread %d counts %+v != %+v", th, gc.Counts(), wc.Counts())
		}
		diffRecords(t, fmt.Sprintf("stripped thread %d", th), drain(gc), drain(wc))
	}
}

// TestV2ReadRejectsCorrupt feeds garbage, empty, truncated and
// structurally broken inputs to OpenStream; each must error out rather
// than panic or accept.
func TestV2ReadRejectsCorrupt(t *testing.T) {
	tr, sp := buildSampleTrace(2)
	var buf bytes.Buffer
	if err := WriteV2(&buf, tr, sp); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(off int, val byte) []byte {
		data := append([]byte(nil), valid...)
		data[off] = val
		return data
	}
	// A one-thread log holding a single barrier: its payload is the one
	// lead byte after the 16-byte header and the chunk's 4-byte prefix.
	bsp := memmap.NewAddressSpace()
	bb := NewBuilder(bsp, 1)
	bb.Barrier()
	var bbuf bytes.Buffer
	if err := WriteV2(&bbuf, bb.Build(), bsp); err != nil {
		t.Fatal(err)
	}
	flaggedBarrier := append([]byte(nil), bbuf.Bytes()...)
	if flaggedBarrier[20] != byte(KindBarrier) {
		t.Fatalf("barrier lead byte %#x, want %#x", flaggedBarrier[20], byte(KindBarrier))
	}
	flaggedBarrier[20] |= FlagDepPrev << 3
	cases := map[string][]byte{
		"garbage":                  []byte("not a trace file"),
		"empty":                    {},
		"truncated v1 header":      []byte("GPIMTRC1\x01\x00\x00\x00"),
		"implausible thread count": append([]byte("GPIMTRC2"), 0, 0, 16, 0, 0, 16, 0, 0),
		"truncated header":         valid[:12],
		"truncated chunk log":      valid[:len(valid)/2],
		"truncated footer":         valid[:len(valid)-4],
		"zero threads":             append(append([]byte(nil), valid[:8]...), 0, 0, 0, 0),
		"zero chunk size":          mutateRange(valid, 12, []byte{0, 0, 0, 0}),
		"huge chunk size":          mutateRange(valid, 12, []byte{0xFF, 0xFF, 0xFF, 0xFF}),
		"unknown tag":              mutate(16, 0x7F),
		"bad end magic":            mutate(len(valid)-1, 'X'),
		"barrier with flags":       flaggedBarrier,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := OpenStream(bytes.NewReader(data)); err == nil {
				t.Fatalf("OpenStream accepted %s", name)
			}
		})
	}
	_, err := OpenStream(bytes.NewReader([]byte("GPIMTRC1XXXX")))
	if err == nil || !strings.Contains(err.Error(), "v1") {
		t.Fatalf("v1 magic: error %v does not name the retired format", err)
	}
}

func mutateRange(valid []byte, off int, val []byte) []byte {
	data := append([]byte(nil), valid...)
	copy(data[off:], val)
	return data
}
