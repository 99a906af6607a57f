// Package graph provides the property-graph substrate the workloads run
// on: a compressed sparse row (CSR) representation with both out- and
// in-edge adjacency, plus deterministic synthetic generators standing in
// for the paper's datasets (LDBC social-network graphs, and the Bitcoin
// and Twitter graphs of the real-world applications).
package graph

import (
	"fmt"
	"sort"
)

// VID is a vertex identifier.
type VID uint32

// Edge is one directed edge with an integer weight (used by SSSP; weight 1
// for unweighted algorithms).
type Edge struct {
	Src, Dst VID
	Weight   uint32
}

// Graph is an immutable directed graph in CSR form. In-edges are
// materialized lazily by Build since several workloads (PageRank,
// Betweenness Centrality) pull along reverse edges.
type Graph struct {
	numVertices int

	// Out-CSR.
	outPtr []uint64
	outDst []VID
	// outW holds per-edge weights, parallel to outDst. It is nil when
	// every edge carries the same weight (the uniformWeight fast path):
	// unweighted graphs then cost 4 bytes/edge less, and OutWeights
	// serves windows of uniformBuf instead.
	outW     []uint32
	uniformW uint32
	// uniformBuf is a read-only run of uniformW values at least as long
	// as the maximum out-degree, so OutWeights can return an aliased
	// window of the right length without allocating.
	uniformBuf []uint32

	// In-CSR.
	inPtr []uint64
	inSrc []VID
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.outDst) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VID) int {
	return int(g.outPtr[v+1] - g.outPtr[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VID) int {
	return int(g.inPtr[v+1] - g.inPtr[v])
}

// OutNeighbors returns the destinations of v's out-edges. The slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VID) []VID {
	return g.outDst[g.outPtr[v]:g.outPtr[v+1]]
}

// OutWeights returns the weights of v's out-edges, parallel to
// OutNeighbors. For uniform-weight graphs the returned slice aliases a
// shared constant buffer; in all cases it must not be modified.
func (g *Graph) OutWeights(v VID) []uint32 {
	if g.outW == nil {
		return g.uniformBuf[:g.outPtr[v+1]-g.outPtr[v]]
	}
	return g.outW[g.outPtr[v]:g.outPtr[v+1]]
}

// UniformWeight reports whether every edge carries the same weight (the
// representation then stores no per-edge weight array) and, if so, that
// weight. An edgeless graph is uniform with weight 1.
func (g *Graph) UniformWeight() (uint32, bool) {
	if g.outW != nil {
		return 0, false
	}
	return g.uniformW, true
}

// InNeighbors returns the sources of v's in-edges. The slice aliases
// internal storage and must not be modified.
func (g *Graph) InNeighbors(v VID) []VID {
	return g.inSrc[g.inPtr[v]:g.inPtr[v+1]]
}

// OutEdgeIndex returns the global CSR index of v's first out-edge; the
// framework uses it to derive simulated addresses for structure accesses.
func (g *Graph) OutEdgeIndex(v VID) uint64 { return g.outPtr[v] }

// Builder accumulates edges for a Graph.
type Builder struct {
	numVertices int
	edges       []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic(fmt.Sprintf("graph: invalid vertex count %d", n))
	}
	return &Builder{numVertices: n}
}

// AddEdge appends a directed edge with weight 1.
func (b *Builder) AddEdge(src, dst VID) { b.AddWeightedEdge(src, dst, 1) }

// AddWeightedEdge appends a directed edge.
func (b *Builder) AddWeightedEdge(src, dst VID, w uint32) {
	if int(src) >= b.numVertices || int(dst) >= b.numVertices {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.numVertices))
	}
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: w})
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the CSR structures. Self-loops are kept; duplicate
// edges are dropped when dedup is true. Build does not disturb the
// builder: it sorts (and dedups) a copy of the edge list, so NumEdges
// stays truthful afterwards and AddEdge-then-rebuild keeps working.
//
// Edges are ordered by (Src, Dst, Weight) — a total order, so the
// result is a fully specified function of the edge multiset and dedup
// keeps the minimum-weight copy of each parallel edge (the SSSP-relevant
// one). Build is the executable specification the streaming BuildStream
// is gated against, as the machine package's test-only scan loop gates
// its event loop: the equivalence suite asserts both produce identical
// CSR arrays for every generator.
func (b *Builder) Build(dedup bool) *Graph {
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		if edges[i].Dst != edges[j].Dst {
			return edges[i].Dst < edges[j].Dst
		}
		return edges[i].Weight < edges[j].Weight
	})
	if dedup {
		out := edges[:0]
		for i, e := range edges {
			if i > 0 && e.Src == out[len(out)-1].Src && e.Dst == out[len(out)-1].Dst {
				continue
			}
			out = append(out, e)
		}
		edges = out
	}

	uniform, uw := true, uint32(1)
	for i, e := range edges {
		if i == 0 {
			uw = e.Weight
		} else if e.Weight != uw {
			uniform = false
			break
		}
	}

	g := &Graph{numVertices: b.numVertices}
	n := b.numVertices
	g.outPtr = make([]uint64, n+1)
	g.outDst = make([]VID, len(edges))
	if !uniform {
		g.outW = make([]uint32, len(edges))
	}
	for _, e := range edges {
		g.outPtr[e.Src+1]++
	}
	for v := 1; v <= n; v++ {
		g.outPtr[v] += g.outPtr[v-1]
	}
	fill := make([]uint64, n)
	for _, e := range edges {
		idx := g.outPtr[e.Src] + fill[e.Src]
		g.outDst[idx] = e.Dst
		if !uniform {
			g.outW[idx] = e.Weight
		}
		fill[e.Src]++
	}

	// In-CSR.
	g.inPtr = make([]uint64, n+1)
	g.inSrc = make([]VID, len(edges))
	for _, e := range edges {
		g.inPtr[e.Dst+1]++
	}
	for v := 1; v <= n; v++ {
		g.inPtr[v] += g.inPtr[v-1]
	}
	for v := range fill {
		fill[v] = 0
	}
	for _, e := range edges {
		idx := g.inPtr[e.Dst] + fill[e.Dst]
		g.inSrc[idx] = e.Src
		fill[e.Dst]++
	}
	if uniform {
		g.setUniform(uw)
	}
	return g
}

// setUniform switches g to the uniform-weight representation: outW is
// dropped and OutWeights serves windows of a shared buffer sized to the
// maximum out-degree. Must be called after outPtr is final.
func (g *Graph) setUniform(w uint32) {
	g.outW = nil
	g.uniformW = w
	var maxDeg uint64
	for v := 0; v < g.numVertices; v++ {
		if d := g.outPtr[v+1] - g.outPtr[v]; d > maxDeg {
			maxDeg = d
		}
	}
	g.uniformBuf = make([]uint32, maxDeg)
	for i := range g.uniformBuf {
		g.uniformBuf[i] = w
	}
}

// Validate checks CSR well-formedness; tests and generators call it.
func (g *Graph) Validate() error {
	n := g.numVertices
	if len(g.outPtr) != n+1 || len(g.inPtr) != n+1 {
		return fmt.Errorf("graph: pointer array length mismatch")
	}
	if g.outPtr[0] != 0 || g.inPtr[0] != 0 {
		return fmt.Errorf("graph: pointer arrays must start at 0")
	}
	if g.outPtr[n] != uint64(len(g.outDst)) || g.inPtr[n] != uint64(len(g.inSrc)) {
		return fmt.Errorf("graph: pointer arrays must end at edge count")
	}
	for v := 0; v < n; v++ {
		if g.outPtr[v] > g.outPtr[v+1] || g.inPtr[v] > g.inPtr[v+1] {
			return fmt.Errorf("graph: non-monotonic pointer at vertex %d", v)
		}
	}
	for _, d := range g.outDst {
		if int(d) >= n {
			return fmt.Errorf("graph: out-edge destination %d out of range", d)
		}
	}
	for _, s := range g.inSrc {
		if int(s) >= n {
			return fmt.Errorf("graph: in-edge source %d out of range", s)
		}
	}
	// Edge counts must agree between the two CSRs.
	if len(g.outDst) != len(g.inSrc) {
		return fmt.Errorf("graph: out/in edge count mismatch %d != %d", len(g.outDst), len(g.inSrc))
	}
	// Weight storage: either a full parallel array or the uniform
	// buffer, which must cover the maximum out-degree.
	if g.outW != nil {
		if len(g.outW) != len(g.outDst) {
			return fmt.Errorf("graph: weight array length %d != edge count %d", len(g.outW), len(g.outDst))
		}
	} else {
		var maxDeg uint64
		for v := 0; v < n; v++ {
			if d := g.outPtr[v+1] - g.outPtr[v]; d > maxDeg {
				maxDeg = d
			}
		}
		if uint64(len(g.uniformBuf)) < maxDeg {
			return fmt.Errorf("graph: uniform weight buffer %d shorter than max out-degree %d",
				len(g.uniformBuf), maxDeg)
		}
	}
	return nil
}

// StructureBytes estimates the memory footprint of the CSR structure,
// used for Table VI reporting. Uniform-weight graphs carry no per-edge
// weight array, only the shared max-degree buffer.
func (g *Graph) StructureBytes() uint64 {
	return uint64(len(g.outPtr))*8 + uint64(len(g.outDst))*4 + uint64(len(g.outW))*4 +
		uint64(len(g.uniformBuf))*4 +
		uint64(len(g.inPtr))*8 + uint64(len(g.inSrc))*4
}

// EstimateCSRBytes is the closed-form StructureBytes of a CSR over the
// given vertex and directed-edge counts: both pointer arrays, both
// adjacency arrays, and (for weighted graphs) the per-edge weight array.
// Table VI uses it to project paper-scale footprints without building
// the graphs.
func EstimateCSRBytes(vertices, edges uint64, weighted bool) uint64 {
	b := 2*(vertices+1)*8 + 2*edges*4
	if weighted {
		b += edges * 4
	}
	return b
}
