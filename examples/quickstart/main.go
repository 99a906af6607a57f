// Quickstart: generate an LDBC-like social graph, run breadth-first
// search under the three system configurations the paper evaluates, and
// print the speedups — the smallest possible end-to-end GraphPIM session.
package main

import (
	"fmt"

	"graphpim"
)

func main() {
	// A scale-free graph in the spirit of the paper's LDBC inputs:
	// ~29 edges per vertex, heavy-tailed degree distribution.
	g := graphpim.GenerateLDBC(4096, 42)
	fmt.Printf("graph: %d vertices, %d edges\n\n", g.NumVertices(), g.NumEdges())

	run := graphpim.NewRun(g, graphpim.DefaultOptions())
	bfs := graphpim.NewBFS(0)

	// Baseline: host atomics through the cache hierarchy with full
	// fence semantics.
	base, out := run.ExecuteFull(bfs, graphpim.ConfigBaseline)

	// The workload executed functionally: real BFS depths came out.
	reached := 0
	for _, d := range out.(graphpim.BFSOutput).Depth {
		if d != ^uint64(0) {
			reached++
		}
	}
	fmt.Printf("BFS reached %d of %d vertices\n\n", reached, g.NumVertices())

	fmt.Printf("%-10s %12s %10s %10s\n", "config", "cycles", "IPC/core", "speedup")
	fmt.Printf("%-10s %12d %10.3f %10s\n", base.Config, base.Cycles, base.IPC(16), "1.00x")

	for _, cfg := range []graphpim.Config{graphpim.ConfigUPEI, graphpim.ConfigGraphPIM} {
		res := run.Execute(bfs, cfg)
		fmt.Printf("%-10s %12d %10.3f %9.2fx\n",
			res.Config, res.Cycles, res.IPC(16), res.Speedup(base))
	}

	fmt.Println("\nGraphPIM offloads the frontier CAS instructions to the HMC's")
	fmt.Println("logic layer: no pipeline freeze, no write-buffer drain, no cache")
	fmt.Println("pollution from irregular graph-property traffic.")
}
