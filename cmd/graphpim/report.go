package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"graphpim"
)

// cmdReport runs the full evaluation (optionally including the extras)
// and writes a Markdown report with every recorded table — the generator
// behind EXPERIMENTS.md-style documents.
func cmdReport(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "small-scale environment")
	vertices := fs.Int("vertices", 0, "LDBC graph size override")
	seed := fs.Uint64("seed", 0, "generator seed override")
	out := fs.String("o", "report.md", "output file")
	extras := fs.Bool("extras", true, "include extension experiments")
	workers := fs.Int("j", runtime.NumCPU(), "parallel workers for simulation cells")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workers < 1 {
		fmt.Fprintf(stderr, "report: -j must be at least 1 (got %d); use -j 1 for a serial run\n", *workers)
		return 2
	}

	env := makeEnv(*quick, *vertices, *seed)
	env.Parallelism = *workers
	defer env.Close()
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()

	fmt.Fprintf(f, "# GraphPIM reproduction report\n\n")
	fmt.Fprintf(f, "Generated %s. Environment: LDBC-like %d vertices, seed %d, %d threads.\n\n",
		time.Now().Format(time.RFC3339), env.Vertices, env.Seed, env.Threads)

	run := func(exps []graphpim.Experiment, heading string) error {
		fmt.Fprintf(f, "## %s\n\n", heading)
		for _, ex := range exps {
			start := time.Now()
			tb, err := env.RunExperiment(context.Background(), ex)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "%-24s done in %s\n", ex.ID, time.Since(start).Round(time.Millisecond))
			fmt.Fprintf(f, "### %s (%s)\n\n%s\n\n```\n%s```\n\n", ex.ID, ex.Paper, ex.Title, tb.String())
		}
		return nil
	}
	if err := run(graphpim.Experiments(), "Paper tables and figures"); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *extras {
		if err := run(graphpim.ExtraExperiments(), "Extension experiments"); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "report written to %s\n", *out)
	return 0
}
