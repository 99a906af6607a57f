package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graphpim"
	"graphpim/internal/gframe"
	"graphpim/internal/machine"
	"graphpim/internal/trace"
)

// cmdTrace generates a workload's instruction trace, optionally saves it
// to disk, and prints its composition; with -replay it replays a saved
// trace under a machine configuration. Traces are expensive to generate
// (full functional execution), so persisting them lets configuration
// sweeps replay instead of regenerate. It returns the exit code: 0
// success, 1 an IO or trace-file failure, 2 a usage error.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vertices := fs.Int("vertices", 4096, "LDBC graph size")
	seed := fs.Uint64("seed", 7, "generator seed")
	save := fs.String("save", "", "write the trace to this file")
	replay := fs.String("replay", "", "replay a saved trace file instead of generating")
	config := fs.String("config", "graphpim", "replay config: baseline|upei|graphpim")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *replay != "" {
		cfg, ok := parseConfig("trace", *config, stderr)
		if !ok {
			return 2
		}
		return replayTrace(*replay, cfg, stdout, stderr)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "trace: need a workload name (or -replay FILE)")
		return 2
	}
	w, err := graphpim.WorkloadByName(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	g := graphpim.GenerateLDBC(*vertices, *seed)
	fw := gframe.New(g, 16, gframe.DefaultCostModel())
	w.Run(fw)
	tr := fw.Trace()

	fmt.Fprintf(stdout, "workload:     %s on %d vertices / %d edges\n", w.Info().Name, g.NumVertices(), g.NumEdges())
	fmt.Fprintf(stdout, "instructions: %d\n", tr.TotalInstructions())
	fmt.Fprintf(stdout, "loads:        %d\n", tr.CountKind(trace.KindLoad))
	fmt.Fprintf(stdout, "stores:       %d\n", tr.CountKind(trace.KindStore))
	fmt.Fprintf(stdout, "atomics:      %d\n", tr.CountKind(trace.KindAtomic))
	fmt.Fprintf(stdout, "barriers:     %d\n", tr.CountKind(trace.KindBarrier))
	for kind, n := range tr.AtomicsByKind() {
		fmt.Fprintf(stdout, "  %-18s %d\n", kind.String(), n)
	}

	if *save != "" {
		size, err := saveTrace(*save, tr, fw)
		if err != nil {
			fmt.Fprintln(stderr, "trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "saved:        %s (%d bytes)\n", *save, size)
	}
	return 0
}

// saveTrace writes tr to path in the v2 format and returns the file size.
func saveTrace(path string, tr *trace.Trace, fw *gframe.Framework) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	err = trace.WriteV2(f, tr, fw.Space())
	var info os.FileInfo
	if err == nil {
		info, err = f.Stat()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// replayTrace replays the saved trace at path chunk by chunk under cfg.
func replayTrace(path string, config graphpim.Config, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "trace:", err)
		return 1
	}
	defer f.Close()
	st, err := trace.OpenStream(f)
	if err != nil {
		fmt.Fprintf(stderr, "trace: %s: %v\n", path, err)
		return 1
	}
	var cfg machine.Config
	switch config {
	case graphpim.ConfigBaseline:
		cfg = machine.Baseline()
	case graphpim.ConfigUPEI:
		cfg = machine.UPEI(true)
		cfg.POU.PMRActive = true
	case graphpim.ConfigGraphPIM:
		cfg = machine.GraphPIM(true)
		cfg.POU.PMRActive = true
	}
	cfg.Cache.L2Size = 128 << 10
	cfg.Cache.L3Size = 512 << 10
	res := machine.RunSource(cfg, st.Space(), st)
	fmt.Fprintf(stdout, "replayed %s under %s:\n", path, res.Config)
	fmt.Fprintf(stdout, "cycles:     %d\n", res.Cycles)
	fmt.Fprintf(stdout, "instrs:     %d\n", res.Instructions)
	fmt.Fprintf(stdout, "IPC/core:   %s\n", fmtRatio(res.IPC(16), "%.3f"))
	fmt.Fprintf(stdout, "link FLITs: %d\n", res.TotalFlits())
	fmt.Fprintf(stdout, "offloaded:  %d PIM atomics, %d host atomics\n",
		res.Stats["mem.pim_atomics"], res.Stats["mem.host_atomics"])
	return 0
}
