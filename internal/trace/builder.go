package trace

import (
	"fmt"

	"graphpim/internal/memmap"
)

// Builder accumulates per-thread instruction streams. Workload code holds
// one Builder and emits through the thread-scoped Emitter values so that
// the thread index never has to be threaded through framework helpers.
type Builder struct {
	space   *memmap.AddressSpace
	threads [][]Instr

	// Streaming mode (sw != nil): threads[t] is only the unflushed tail;
	// buffers spill to sw as chunks once they reach chunk records.
	sw    *StreamWriter
	chunk int
}

// NewBuilder returns a Builder for numThreads logical threads emitting
// addresses classified against space.
func NewBuilder(space *memmap.AddressSpace, numThreads int) *Builder {
	if numThreads <= 0 {
		panic(fmt.Sprintf("trace: invalid thread count %d", numThreads))
	}
	return &Builder{
		space:   space,
		threads: make([][]Instr, numThreads),
	}
}

// NewStreamingBuilder returns a Builder that spills records to sw in
// chunks instead of materializing the trace: per-thread buffers flush as
// chunks at sw's chunk size, and Barrier force-flushes every thread and
// marks a checkpoint. The record sequence is byte-identical to what a
// materializing Builder fed the same emissions produces — flushes retain
// a trailing coalescible compute record so Compute merges across chunk
// boundaries exactly as it does in a flat slice.
func NewStreamingBuilder(space *memmap.AddressSpace, sw *StreamWriter) *Builder {
	b := &Builder{
		space:   space,
		threads: make([][]Instr, sw.threads),
		sw:      sw,
		chunk:   sw.chunkCap,
	}
	for t := range b.threads {
		b.threads[t] = sw.buffer()
	}
	return b
}

// flush spills thread t's buffered records as one chunk. Unless final, a
// trailing flag-free, unsaturated compute record stays behind in the
// fresh buffer: Compute coalesces into the last such record, so keeping
// it live makes chunked emission produce the exact record sequence a
// flat builder would.
func (b *Builder) flush(t int, final bool) {
	th := b.threads[t]
	n := len(th)
	keep := 0
	if !final && n > 0 {
		if last := th[n-1]; last.Kind == KindCompute && last.Flags == 0 && last.N < 65535 {
			keep = 1
		}
	}
	if n-keep == 0 {
		return
	}
	next := append(b.sw.buffer(), th[n-keep:]...)
	b.sw.chunk(t, th[:n-keep])
	b.threads[t] = next
}

// Finalize flushes every residual buffer and completes the chunk log,
// returning the replayable Stream (when sw writes to a spill file).
// Streaming builders only; the builder must not be used afterwards.
func (b *Builder) Finalize() (*Stream, error) {
	if b.sw == nil {
		panic("trace: Finalize on a materializing Builder")
	}
	for t := range b.threads {
		b.flush(t, true)
		b.threads[t] = nil
	}
	return b.sw.Finalize(b.space)
}

// NumThreads returns the logical thread count.
func (b *Builder) NumThreads() int { return len(b.threads) }

// Thread returns the Emitter for thread t.
func (b *Builder) Thread(t int) *Emitter {
	return &Emitter{b: b, tid: t}
}

// Barrier appends a barrier record to every thread. Threads reaching the
// barrier stall until all threads arrive.
func (b *Builder) Barrier() {
	for t := range b.threads {
		b.threads[t] = append(b.threads[t], Instr{Kind: KindBarrier})
	}
	if b.sw != nil {
		// Barriers are checkpoint boundaries: flush everything (the
		// barrier is last, so nothing coalescible is pending) and write
		// the checkpoint tag.
		for t := range b.threads {
			b.flush(t, false)
		}
		b.sw.checkpoint()
	}
}

// Build finalizes the trace and ends the Builder: each thread is copied
// into an exact-size slice (dropping the append slack) and the builder's
// own buffers are released, so a trace held for replay is not held twice.
// Emitting after Build, or a second Build, panics. Streaming builders
// cannot materialize — use Finalize.
func (b *Builder) Build() *Trace {
	if b.sw != nil {
		panic("trace: Build on a streaming Builder; use Finalize")
	}
	if b.threads == nil {
		panic("trace: Build on a Builder that was already built")
	}
	threads := make([][]Instr, len(b.threads))
	for i, th := range b.threads {
		cp := make([]Instr, len(th))
		copy(cp, th)
		threads[i] = cp
	}
	b.threads = nil
	return &Trace{Threads: threads}
}

// Emitter emits instructions for one logical thread.
type Emitter struct {
	b   *Builder
	tid int
}

func (e *Emitter) push(in Instr) {
	b := e.b
	b.threads[e.tid] = append(b.threads[e.tid], in)
	if b.sw != nil && len(b.threads[e.tid]) >= b.chunk {
		b.flush(e.tid, false)
	}
}

// Compute emits a batch of n single-cycle ALU instructions. Batches larger
// than 65535 are split; adjacent flag-free compute batches are coalesced
// to keep traces compact.
func (e *Emitter) Compute(n int) {
	th := e.b.threads[e.tid]
	if n > 0 && len(th) > 0 {
		last := &th[len(th)-1]
		if last.Kind == KindCompute && last.Flags == 0 {
			room := 65535 - int(last.N)
			if room > n {
				room = n
			}
			last.N += uint16(room)
			n -= room
		}
	}
	for n > 0 {
		chunk := n
		if chunk > 65535 {
			chunk = 65535
		}
		e.push(Instr{Kind: KindCompute, N: uint16(chunk)})
		n -= chunk
	}
}

// Load emits a read of size bytes at addr. depPrev marks a dependence on
// the previous memory result (pointer chase).
func (e *Emitter) Load(addr memmap.Addr, size int, depPrev bool) {
	var flags uint8
	if depPrev {
		flags |= FlagDepPrev
	}
	e.push(Instr{
		Kind:   KindLoad,
		Addr:   addr,
		Size:   uint8(size),
		Region: e.b.space.RegionOf(addr),
		Flags:  flags,
	})
}

// Store emits a write of size bytes at addr.
func (e *Emitter) Store(addr memmap.Addr, size int, depPrev bool) {
	var flags uint8
	if depPrev {
		flags |= FlagDepPrev
	}
	e.push(Instr{
		Kind:   KindStore,
		Addr:   addr,
		Size:   uint8(size),
		Region: e.b.space.RegionOf(addr),
		Flags:  flags,
	})
}

// Atomic emits a host atomic instruction of the given form at addr.
// depPrev marks atomics whose operand comes from the previous memory
// result (e.g. a CAS comparing against a just-loaded value); retUsed marks
// atomics whose result feeds later instructions (e.g. the branch after a
// CAS); failed marks CAS attempts whose comparison lost.
func (e *Emitter) Atomic(kind HostAtomic, addr memmap.Addr, size int, depPrev, retUsed, failed bool) {
	var flags uint8
	if depPrev {
		flags |= FlagDepPrev
	}
	if retUsed {
		flags |= FlagRetUsed
	}
	if failed {
		flags |= FlagCASFail
	}
	e.push(Instr{
		Kind:   KindAtomic,
		Addr:   addr,
		Size:   uint8(size),
		Atomic: kind,
		Region: e.b.space.RegionOf(addr),
		Flags:  flags,
	})
}

// DependentCompute emits n ALU instructions whose first instruction
// depends on the previous memory result — the "dependent instruction
// block" after a returning atomic or load (Fig. 8).
func (e *Emitter) DependentCompute(n int) {
	if n <= 0 {
		return
	}
	e.push(Instr{Kind: KindCompute, N: 1, Flags: FlagDepPrev})
	if n > 1 {
		e.Compute(n - 1)
	}
}
