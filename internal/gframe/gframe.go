// Package gframe is the graph computing framework layer of Fig. 5: it
// owns graph-data management (placing the graph property into the PIM
// memory region via the pmr_malloc-equivalent), exposes the primitives
// workloads are written against (neighbor iteration, property reads and
// atomic updates, task queues, barriers), and — because this is a
// simulator — emits the instruction trace of everything it does.
//
// Workloads execute functionally: property values are really read,
// compared, and written, so results can be verified against reference
// implementations, while the emitted trace drives the timing model.
//
// The memory behaviour follows GraphBIG (the paper's benchmark suite),
// whose C++ framework stores adjacency in pointer-linked per-edge objects:
// iterating a vertex's edges is a dependent pointer chase through a large
// scattered structure segment, not a dense CSR scan. This is what makes
// the non-atomic portion of graph workloads memory-bound (Fig. 2) and is
// faithfully modeled by the Scattered structure layout.
package gframe

import (
	"fmt"
	"math"
	"os"

	"graphpim/internal/graph"
	"graphpim/internal/memmap"
	"graphpim/internal/trace"
)

// CostModel captures the framework's per-operation instruction overheads,
// calibrated so that the simulated baseline reproduces the paper's
// characterization (IPC well below 0.1 for traversals, >50% atomic time
// for the atomic-heavy workloads).
type CostModel struct {
	// ScatteredStructure lays edge objects out pointer-chase style
	// (GraphBIG); false gives a dense sequential CSR layout.
	ScatteredStructure bool
	// VertexWork is compute per vertex visit (iterator setup, status
	// checks).
	VertexWork int
	// EdgeWork is compute per edge visit (branching, address math).
	EdgeWork int
	// DepEdgeWork is the portion of per-edge compute that depends on
	// the edge-object load (field decoding).
	DepEdgeWork int
	// QueueWork is compute per task-queue operation.
	QueueWork int
}

// DefaultCostModel returns the GraphBIG-calibrated cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		ScatteredStructure: true,
		VertexWork:         6,
		EdgeWork:           4,
		DepEdgeWork:        3,
		QueueWork:          3,
	}
}

// Property is one vertex-property array, allocated in the PIM memory
// region. Values are stored as 64-bit words; float properties go through
// math.Float64bits.
//
// Elements are spaced one cache line apart: GraphBIG's vertex property
// objects are fat C++ structures, so consecutive vertices' atomic fields
// never share a line (this is what makes property access so cache-hostile
// in the paper's measurements).
type Property struct {
	name     string
	base     memmap.Addr // PMR share
	dramBase memmap.Addr // conventional share (hybrid systems)
	cutoff   uint64      // vertices below this live in the PMR
	elem     uint64
	stride   uint64
	vals     []uint64
	released bool
}

// values guards the functional array: after ReleaseProperties only
// addresses remain valid, and touching values is a caller bug that must
// fail loudly rather than read zeros.
func (p *Property) values() []uint64 {
	if p.released {
		panic("gframe: property " + p.name + " values accessed after ReleaseProperties")
	}
	return p.vals
}

// Name returns the property name.
func (p *Property) Name() string { return p.name }

// Addr returns the simulated address of v's element.
func (p *Property) Addr(v graph.VID) memmap.Addr {
	if uint64(v) < p.cutoff {
		return p.base + memmap.Addr(uint64(v)*p.stride)
	}
	return p.dramBase + memmap.Addr((uint64(v)-p.cutoff)*p.stride)
}

// U64 returns v's value as an integer.
func (p *Property) U64(v graph.VID) uint64 { return p.values()[v] }

// SetU64 sets v's value (functional initialization, no trace).
func (p *Property) SetU64(v graph.VID, x uint64) { p.values()[v] = x }

// F64 returns v's value as a float.
func (p *Property) F64(v graph.VID) float64 { return math.Float64frombits(p.values()[v]) }

// SetF64 sets v's value as a float (functional initialization, no trace).
func (p *Property) SetF64(v graph.VID, x float64) { p.values()[v] = math.Float64bits(x) }

// Fill sets every element (functional initialization, no trace).
func (p *Property) Fill(x uint64) {
	vals := p.values()
	for i := range vals {
		vals[i] = x
	}
}

// FillF64 sets every element to a float value.
func (p *Property) FillF64(x float64) { p.Fill(math.Float64bits(x)) }

// Snapshot returns a copy of the raw values (tests).
func (p *Property) Snapshot() []uint64 {
	vals := p.values()
	out := make([]uint64, len(vals))
	copy(out, vals)
	return out
}

// Framework binds a graph to an address space and a trace builder.
type Framework struct {
	g       *graph.Graph
	space   *memmap.AddressSpace
	builder *trace.Builder
	cost    CostModel
	threads int

	vertexHdrBase memmap.Addr
	edgeObjBase   memmap.Addr
	edgeObjSlots  uint64
	metaBase      []memmap.Addr

	// pmrCoverage is the fraction of each property array placed in the
	// PIM memory region; the remainder goes to conventional (DRAM)
	// memory — the hybrid HMC+DRAM systems of Section III-B.
	pmrCoverage float64

	props []*Property
}

// Structure-layout constants: per-vertex headers of 16 bytes and per-edge
// objects of 32 bytes, matching pointer-rich framework representations.
const (
	vertexHdrBytes = 16
	edgeObjBytes   = 32
	metaBytes      = 1 << 14 // per-thread task-queue region
	propStride     = 64      // one vertex property object per cache line
)

// New builds a framework instance for g with the given logical thread
// count and cost model.
func New(g *graph.Graph, threads int, cost CostModel) *Framework {
	return build(g, threads, cost, nil)
}

// NewStreaming builds a framework whose emitted trace spills to sw in
// chunks instead of materializing: the builder flushes per-thread chunk
// buffers through sw's bounded ring as the workload runs, so peak memory
// is the graph plus live chunks, never the whole trace. Use
// FinalizeStream (not Trace) to complete the run.
func NewStreaming(g *graph.Graph, threads int, cost CostModel, sw *trace.StreamWriter) *Framework {
	return build(g, threads, cost, sw)
}

func build(g *graph.Graph, threads int, cost CostModel, sw *trace.StreamWriter) *Framework {
	if threads <= 0 {
		panic(fmt.Sprintf("gframe: invalid thread count %d", threads))
	}
	space := memmap.NewAddressSpace()
	f := &Framework{
		g:       g,
		space:   space,
		cost:    cost,
		threads: threads,
	}
	if sw != nil {
		f.builder = trace.NewStreamingBuilder(space, sw)
		if f.builder.NumThreads() != threads {
			panic(fmt.Sprintf("gframe: stream writer has %d threads, framework %d", f.builder.NumThreads(), threads))
		}
	} else {
		f.builder = trace.NewBuilder(space, threads)
	}
	f.pmrCoverage = 1
	f.vertexHdrBase = space.AllocStruct(uint64(g.NumVertices()) * vertexHdrBytes)
	f.edgeObjSlots = uint64(g.NumEdges()) + 1
	f.edgeObjBase = space.AllocStruct(f.edgeObjSlots * edgeObjBytes)
	for t := 0; t < threads; t++ {
		f.metaBase = append(f.metaBase, space.AllocMeta(metaBytes))
	}
	return f
}

// MaxMaterializedEdges is the largest graph, in edges, whose trace Record
// keeps in memory. Every graph the recorded experiments build (LDBC up to
// 16,384 vertices, about 470k edges, and the 16,384-vertex apps) stays
// under it and replays the materialized trace, the faster of the two
// pipelines at that size; LDBC-65536 (about 1.9M edges) and larger spill,
// because there the trace rather than the graph would dominate memory.
const MaxMaterializedEdges = 1 << 20

// Record runs a workload once over a fresh framework on g and returns the
// framework, its replayable trace, and a release func. The pipeline is
// picked from the graph's size: with at most maxEdges edges the trace
// materializes in memory (a *trace.Trace); above that the records spill
// as v2 chunks to an unlinked temp file while run emits them, and src is a
// *trace.Stream over it, so peak memory is the graph plus live chunk
// buffers. Callers pass MaxMaterializedEdges; tests pass a smaller bound
// to take the spill path on small graphs. The two pipelines replay
// byte-identically.
//
// Once run returns, the property arrays are released: run must have
// taken any functional output it needs (outputs are snapshots), and
// replay needs only addresses. release closes the spill file (a no-op for
// a materialized trace); call it once nothing replays src any more.
func Record(g *graph.Graph, threads, maxEdges int, run func(*Framework)) (fw *Framework, src trace.Source, release func() error, err error) {
	if g.NumEdges() <= maxEdges {
		fw = New(g, threads, DefaultCostModel())
		run(fw)
		fw.ReleaseProperties()
		return fw, fw.Trace(), func() error { return nil }, nil
	}
	f, err := os.CreateTemp("", "graphpim-spill-*.gpimtrc2")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("gframe: creating trace spill file: %w", err)
	}
	// Unlink at once: the open descriptor keeps the inode alive, and no
	// crash can leave a stray spill file behind.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("gframe: unlinking trace spill file: %w", err)
	}
	sw, err := trace.NewStreamWriter(f, threads, trace.DefaultChunkRecords)
	if err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("gframe: starting stream writer: %w", err)
	}
	fw = NewStreaming(g, threads, DefaultCostModel(), sw)
	run(fw)
	fw.ReleaseProperties()
	st, err := fw.FinalizeStream()
	if err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("gframe: finalizing streamed trace: %w", err)
	}
	return fw, st, f.Close, nil
}

// Graph returns the underlying graph.
func (f *Framework) Graph() *graph.Graph { return f.g }

// Space returns the simulated address space (the machine model needs it
// for POU routing).
func (f *Framework) Space() *memmap.AddressSpace { return f.space }

// NumThreads returns the logical thread count.
func (f *Framework) NumThreads() int { return f.threads }

// SetPMRCoverage places only the given fraction of each subsequently
// allocated property array in the PIM memory region, modeling a system
// with both HMC and conventional DRAM (Section III-B's discussion): data
// in the DRAM share is processed conventionally while the HMC share still
// benefits from PIM-Atomic. Must be called before AllocProperty.
func (f *Framework) SetPMRCoverage(frac float64) {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("gframe: PMR coverage %v outside [0,1]", frac))
	}
	f.pmrCoverage = frac
}

// AllocProperty allocates a property array of elemSize bytes per vertex
// inside the PIM memory region — the pmr_malloc hook of Section III-A.
// Under partial PMR coverage the tail of the array lives in conventional
// memory instead.
func (f *Framework) AllocProperty(name string, elemSize int) *Property {
	if elemSize <= 0 || elemSize > 16 {
		panic(fmt.Sprintf("gframe: property element size %d outside HMC operand sizes", elemSize))
	}
	n := uint64(f.g.NumVertices())
	inPMR := uint64(float64(n) * f.pmrCoverage)
	p := &Property{
		name:   name,
		elem:   uint64(elemSize),
		stride: propStride,
		vals:   make([]uint64, n),
		cutoff: inPMR,
	}
	if inPMR > 0 {
		p.base = f.space.PMRMalloc(inPMR * propStride)
	}
	if inPMR < n {
		p.dramBase = f.space.AllocProperty((n - inPMR) * propStride)
	}
	f.props = append(f.props, p)
	return p
}

// Barrier inserts a global synchronization point.
func (f *Framework) Barrier() { f.builder.Barrier() }

// Trace returns the emitted instruction streams and ends the framework's
// emission: the builder's buffers are released, and a second Trace (or
// any further emission) panics.
func (f *Framework) Trace() *trace.Trace { return f.builder.Build() }

// FinalizeStream completes a streaming framework's chunk log and returns
// the replayable Stream. NewStreaming frameworks only.
func (f *Framework) FinalizeStream() (*trace.Stream, error) {
	return f.builder.Finalize()
}

// ReleaseProperties drops every property array's functional values.
// Record calls it after the workload has run (and its output snapshots
// are taken): replay only needs addresses, so holding per-vertex values
// for the duration of every machine configuration would put an
// O(vertices) term back into peak RSS. Accessing a released property's
// values panics.
func (f *Framework) ReleaseProperties() {
	for _, p := range f.props {
		p.vals = nil
		p.released = true
	}
}

// Thread returns the per-thread execution context.
func (f *Framework) Thread(t int) *Ctx {
	return &Ctx{f: f, tid: t, e: f.builder.Thread(t)}
}

// BalancedRanges partitions the vertex set into contiguous per-thread
// ranges with roughly equal edge counts, the framework's degree-aware
// static work distribution (graph frameworks balance by edges, not
// vertices, because real graphs are heavily skewed).
func BalancedRanges(g *graph.Graph, threads int) [][2]int {
	n := g.NumVertices()
	total := uint64(g.NumEdges()) + uint64(n) // count vertex visits too
	per := total/uint64(threads) + 1
	out := make([][2]int, threads)
	v := 0
	for t := 0; t < threads; t++ {
		lo := v
		var acc uint64
		for v < n && (acc < per || t == threads-1) {
			acc += uint64(g.OutDegree(graph.VID(v))) + 1
			v++
		}
		out[t] = [2]int{lo, v}
	}
	out[threads-1][1] = n
	return out
}

// BalanceFrontier distributes a work list across threads so that each
// thread receives a similar total out-degree (the dynamic task-queue
// balancing of framework schedulers).
func BalanceFrontier(g *graph.Graph, vs []graph.VID, threads int) [][]graph.VID {
	out := make([][]graph.VID, threads)
	loads := make([]uint64, threads)
	for _, v := range vs {
		best := 0
		for t := 1; t < threads; t++ {
			if loads[t] < loads[best] {
				best = t
			}
		}
		out[best] = append(out[best], v)
		loads[best] += uint64(g.OutDegree(v)) + 1
	}
	return out
}

// ChunkRanges partitions [0, n) into contiguous per-thread ranges, the
// framework's static work distribution.
func ChunkRanges(n, threads int) [][2]int {
	out := make([][2]int, threads)
	chunk := (n + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		out[t] = [2]int{lo, hi}
	}
	return out
}

// scatter maps an edge index to a pseudo-random slot, modeling the heap
// placement of pointer-linked edge objects.
func (f *Framework) scatter(idx uint64) uint64 {
	if !f.cost.ScatteredStructure {
		return idx % f.edgeObjSlots
	}
	x := idx
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x % f.edgeObjSlots
}

// Ctx is the framework API surface workloads program against, bound to
// one logical thread.
type Ctx struct {
	f   *Framework
	tid int
	e   *trace.Emitter
}

// TID returns the logical thread id.
func (c *Ctx) TID() int { return c.tid }

// Compute emits n units of independent ALU work.
func (c *Ctx) Compute(n int) { c.e.Compute(n) }

// DependentCompute emits ALU work depending on the last memory result.
func (c *Ctx) DependentCompute(n int) { c.e.DependentCompute(n) }

// BeginVertex emits the vertex-header access and iterator setup for v and
// returns its out-degree.
func (c *Ctx) BeginVertex(v graph.VID) int {
	c.e.Load(c.f.vertexHdrBase+memmap.Addr(uint64(v)*vertexHdrBytes), 8, false)
	c.e.Compute(c.f.cost.VertexWork)
	return c.f.g.OutDegree(v)
}

// BeginVertexIn is BeginVertex for in-edge iteration.
func (c *Ctx) BeginVertexIn(v graph.VID) int {
	c.e.Load(c.f.vertexHdrBase+memmap.Addr(uint64(v)*vertexHdrBytes), 8, false)
	c.e.Compute(c.f.cost.VertexWork)
	return c.f.g.InDegree(v)
}

// visitEdge emits the iterator advance: a dependent load of the edge
// object (the pointer chase) plus decode work.
func (c *Ctx) visitEdge(globalIdx uint64) {
	slot := c.f.scatter(globalIdx)
	c.e.Load(c.f.edgeObjBase+memmap.Addr(slot*edgeObjBytes), 8, true)
	if c.f.cost.DepEdgeWork > 0 {
		c.e.DependentCompute(c.f.cost.DepEdgeWork)
	}
	if c.f.cost.EdgeWork > 0 {
		c.e.Compute(c.f.cost.EdgeWork)
	}
}

// OutEdges iterates v's out-edges, invoking fn with the neighbor and the
// edge weight. The iterator's memory behaviour (dependent edge-object
// loads) is emitted per edge.
func (c *Ctx) OutEdges(v graph.VID, fn func(dst graph.VID, w uint32)) {
	base := c.f.g.OutEdgeIndex(v)
	nbrs := c.f.g.OutNeighbors(v)
	ws := c.f.g.OutWeights(v)
	for i, d := range nbrs {
		c.visitEdge(base + uint64(i))
		fn(d, ws[i])
	}
}

// InEdges iterates v's in-edges.
func (c *Ctx) InEdges(v graph.VID, fn func(src graph.VID)) {
	for i, s := range c.f.g.InNeighbors(v) {
		c.visitEdge(uint64(v)*31 + uint64(i)) // in-edge objects are separate heap allocations
		fn(s)
	}
}

// VertexStatus emits the status-flag check of one vertex: a load of its
// header in the (cacheable) structure segment. kCore's scan over inactive
// vertices is made of these.
func (c *Ctx) VertexStatus(v graph.VID) {
	c.e.Load(c.f.vertexHdrBase+memmap.Addr(uint64(v)*vertexHdrBytes), 8, false)
	c.e.Compute(1)
}

// ScanStructure emits n sequential structure loads starting from a
// scattered base slot — the line-granular scan of an adjacency list (used
// by triangle counting's intersection loops).
func (c *Ctx) ScanStructure(key uint64, n int) {
	base := c.f.scatter(key)
	for i := 0; i < n; i++ {
		slot := (base + uint64(i)*2) % c.f.edgeObjSlots
		c.e.Load(c.f.edgeObjBase+memmap.Addr(slot*edgeObjBytes), 8, false)
	}
}

// ChaseStructure emits a dependent chain of n scattered structure loads —
// a pointer walk through linked records (transaction histories, audit
// trails) that cannot overlap.
func (c *Ctx) ChaseStructure(key uint64, n int) {
	for i := 0; i < n; i++ {
		slot := c.f.scatter(key + uint64(i)*0x9E37)
		c.e.Load(c.f.edgeObjBase+memmap.Addr(slot*edgeObjBytes), 8, true)
	}
}

// LoadU64 reads a property element, emitting the (irregular) load.
// dep marks address dependence on the previous memory result.
func (c *Ctx) LoadU64(p *Property, v graph.VID, dep bool) uint64 {
	c.e.Load(p.Addr(v), int(p.elem), dep)
	return p.vals[v]
}

// LoadF64 reads a float property element.
func (c *Ctx) LoadF64(p *Property, v graph.VID, dep bool) float64 {
	c.e.Load(p.Addr(v), int(p.elem), dep)
	return math.Float64frombits(p.vals[v])
}

// StoreU64 writes a property element.
func (c *Ctx) StoreU64(p *Property, v graph.VID, x uint64) {
	c.e.Store(p.Addr(v), int(p.elem), false)
	p.vals[v] = x
}

// StoreF64 writes a float property element.
func (c *Ctx) StoreF64(p *Property, v graph.VID, x float64) {
	c.StoreU64(p, v, math.Float64bits(x))
}

// CAS performs compare-and-swap on a property element (the lock cmpxchg
// of Table II). The return value is consumed by a branch, so the atomic
// is marked return-used; a failed comparison is marked for the
// speculation-flush model.
func (c *Ctx) CAS(p *Property, v graph.VID, compare, swap uint64) bool {
	ok := p.vals[v] == compare
	c.e.Atomic(trace.AtomicCAS, p.Addr(v), int(p.elem), false, true, !ok)
	if ok {
		p.vals[v] = swap
	}
	return ok
}

// AtomicMin lowers a property element to x if smaller (the CAS-if-less
// instruction block of Section III-B). Returns whether the value changed.
func (c *Ctx) AtomicMin(p *Property, v graph.VID, x uint64) bool {
	ok := x < p.vals[v]
	c.e.Atomic(trace.AtomicMin, p.Addr(v), int(p.elem), false, true, !ok)
	if ok {
		p.vals[v] = x
	}
	return ok
}

// AtomicMax raises a property element to x if larger (the CAS-if-greater
// block mirroring AtomicMin; GNN max-pooling aggregation). Returns
// whether the value changed.
func (c *Ctx) AtomicMax(p *Property, v graph.VID, x uint64) bool {
	ok := x > p.vals[v]
	c.e.Atomic(trace.AtomicMax, p.Addr(v), int(p.elem), false, true, !ok)
	if ok {
		p.vals[v] = x
	}
	return ok
}

// AtomicAdd adds a signed delta to a property element (lock add/sub).
// The return value is unused, so the operation can be posted.
func (c *Ctx) AtomicAdd(p *Property, v graph.VID, delta int64) {
	kind := trace.AtomicAdd
	if delta < 0 {
		kind = trace.AtomicSub
	}
	c.e.Atomic(kind, p.Addr(v), int(p.elem), false, false, false)
	p.vals[v] = uint64(int64(p.vals[v]) + delta)
}

// AtomicAddRet is AtomicAdd whose fetched old value feeds later
// instructions (e.g. kCore's degree decrement feeding the <k test).
func (c *Ctx) AtomicAddRet(p *Property, v graph.VID, delta int64) uint64 {
	old := p.vals[v]
	c.e.Atomic(trace.AtomicAdd, p.Addr(v), int(p.elem), false, true, false)
	p.vals[v] = uint64(int64(old) + delta)
	return old
}

// AtomicAddF64 accumulates into a float property — a CAS loop on the
// host, a single FP-add with the paper's extension.
func (c *Ctx) AtomicAddF64(p *Property, v graph.VID, delta float64) {
	c.e.Atomic(trace.AtomicFPAdd, p.Addr(v), int(p.elem), false, false, false)
	p.vals[v] = math.Float64bits(math.Float64frombits(p.vals[v]) + delta)
}

// ComplexUpdate models the multi-operand structure/property mutations of
// the dynamic-graph workloads: a host-only atomic block touching the
// property plus dependent stores into the structure segment.
func (c *Ctx) ComplexUpdate(p *Property, v graph.VID, stores int) {
	c.e.Atomic(trace.AtomicComplex, p.Addr(v), int(p.elem), false, true, false)
	for i := 0; i < stores; i++ {
		slot := c.f.scatter(uint64(v)*7 + uint64(i))
		c.e.Store(c.f.edgeObjBase+memmap.Addr(slot*edgeObjBytes), 8, true)
	}
	c.e.Compute(c.f.cost.EdgeWork * 2)
}

// QueuePush appends a task to the thread-local queue (meta data).
func (c *Ctx) QueuePush(slot int) {
	c.e.Compute(c.f.cost.QueueWork)
	c.e.Store(c.f.metaBase[c.tid]+memmap.Addr((uint64(slot)*8)%metaBytes), 8, false)
}

// QueuePop reads a task from the thread-local queue.
func (c *Ctx) QueuePop(slot int) {
	c.e.Load(c.f.metaBase[c.tid]+memmap.Addr((uint64(slot)*8)%metaBytes), 8, false)
	c.e.Compute(c.f.cost.QueueWork)
}
