package trace

import (
	"bytes"
	"testing"
)

// FuzzRead hardens the trace reader (OpenStream) against corrupt and
// adversarial inputs: it must either return an error or a structurally
// valid stream, never panic or over-allocate. Every record of an accepted
// stream must be in range and survive a WriteV2/OpenStream round trip.
func FuzzRead(f *testing.F) {
	// Seed with valid logs and a few mutations.
	tr, sp := buildSampleTrace(1)
	var buf bytes.Buffer
	if err := WriteV2(&buf, tr, sp); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("GPIMTRC1"))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	flipped := append([]byte(nil), valid...)
	flipped[17] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte("GPIMTRC2"))
	f.Add(append([]byte(nil), valid[:len(valid)-8]...))
	// A streaming Builder's log carries barrier checkpoint tags.
	cpSpace, meta, prop, prop2 := sampleSpace()
	var cpBuf bytes.Buffer
	sw, err := NewStreamWriter(&cpBuf, 3, 32)
	if err != nil {
		f.Fatal(err)
	}
	b := NewStreamingBuilder(cpSpace, sw)
	emitSample(b, 5, meta, prop, prop2, 2, 20)
	if _, err := b.Finalize(); err != nil {
		f.Fatal(err)
	}
	f.Add(cpBuf.Bytes())
	footer := append([]byte(nil), valid...)
	footer[len(valid)-10] ^= 0x01
	f.Add(footer)
	f.Add([]byte("not a trace file"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := OpenStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.NumThreads() == 0 || st.NumThreads() > 1024 {
			t.Fatalf("implausible thread count %d accepted", st.NumThreads())
		}
		// Every record of an accepted stream must be in range: the machine
		// indexes counter arrays by these fields, so an invalid record that
		// slips through the reader is a replay panic waiting to happen.
		got := &Trace{Threads: make([][]Instr, st.NumThreads())}
		for th := range got.Threads {
			cur := st.Cursor(th)
			got.Threads[th] = drain(cur)
			for i, in := range got.Threads[th] {
				if err := validateInstr(in); err != nil {
					t.Fatalf("thread %d record %d invalid after accept: %v", th, i, err)
				}
			}
			if n := CountRecords(got.Threads[th]); n != cur.Counts() {
				t.Fatalf("thread %d: cursor counts %+v, records count %+v", th, cur.Counts(), n)
			}
		}
		// An accepted stream must round-trip.
		var buf bytes.Buffer
		if err := WriteV2(&buf, got, st.Space()); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		again, _, err := readAll(buf.Bytes())
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if again.TotalInstructions() != got.TotalInstructions() {
			t.Fatal("round trip changed instruction count")
		}
	})
}
