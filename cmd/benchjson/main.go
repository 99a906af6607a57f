// Command benchjson runs the simulator throughput benchmarks and records
// the results in a JSON trajectory file, so each optimization PR commits
// machine-readable before/after numbers next to the code that earned them.
//
// Usage:
//
//	go run ./cmd/benchjson -out BENCH_pr3.json -phase after [-count 3] [-bench REGEX]
//
// The tool shells out to `go test -bench`, parses the standard benchmark
// output, keeps the best repetition per benchmark (minimum ns/op), and
// merges the result into -out under the given -phase ("before" or
// "after"), preserving any other phase already recorded there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Bench is one benchmark's best repetition.
type Bench struct {
	Name    string  `json:"name"`
	Reps    int     `json:"reps"`
	Iters   int64   `json:"iters"`
	NsOp    float64 `json:"ns_op"`
	InstrsS float64 `json:"instrs_s,omitempty"`
	// PeakBytes is the sampled peak live heap during the benchmark, for
	// benchmarks that report it (the trace-pipeline memory comparison).
	PeakBytes float64 `json:"peak_bytes,omitempty"`
	BytesOp   float64 `json:"bytes_op"`
	AllocsOp  float64 `json:"allocs_op"`
}

// Phase is one measurement pass over the benchmark set.
type Phase struct {
	Benchmarks []Bench `json:"benchmarks"`
}

// File is the trajectory file layout. NumCPU and Gomaxprocs carry the
// machine provenance of the recording host: a committed BENCH_*.json
// showing (or failing to show) multi-core speedup is only interpretable
// alongside how many CPUs the recording machine actually had.
type File struct {
	Goos       string           `json:"goos,omitempty"`
	Goarch     string           `json:"goarch,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	NumCPU     int              `json:"num_cpu,omitempty"`
	Gomaxprocs int              `json:"gomaxprocs,omitempty"`
	Phases     map[string]Phase `json:"phases"`
}

func main() {
	out := flag.String("out", "BENCH_pr3.json", "trajectory file to update")
	phase := flag.String("phase", "after", "phase to record (e.g. before, after)")
	count := flag.Int("count", 3, "benchmark repetitions (-count)")
	bench := flag.String("bench", "BenchmarkMachineRun|BenchmarkSimulatorThroughput",
		"benchmark regex (-bench)")
	pkg := flag.String("pkg", ".", "packages to benchmark, space-separated")
	flag.Parse()

	args := append([]string{"test", "-run", "^$",
		"-bench", *bench, "-benchmem", "-count", strconv.Itoa(*count)}, strings.Fields(*pkg)...)
	cmd := exec.Command("go", args...)
	raw, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n%s", err, raw)
		os.Exit(1)
	}

	f := load(*out)
	benches, err := record(&f, *phase, *bench, string(raw))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	for _, b := range benches {
		fmt.Printf("%-40s %12.0f ns/op %12.0f instrs/s %8.0f allocs/op\n",
			b.Name, b.NsOp, b.InstrsS, b.AllocsOp)
	}
	fmt.Printf("recorded %d benchmarks to %s (phase %q)\n", len(benches), *out, *phase)
}

// load reads an existing trajectory file, or returns an empty one.
func load(path string) File {
	f := File{Phases: map[string]Phase{}}
	raw, err := os.ReadFile(path)
	if err != nil {
		return f
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s exists but is not valid JSON: %v\n", path, err)
		os.Exit(1)
	}
	if f.Phases == nil {
		f.Phases = map[string]Phase{}
	}
	return f
}

// record parses go-test benchmark output and merges it into f under the
// given phase. A regex that matched no benchmark is an error, not an
// empty phase: `go test -bench NoSuchBenchmark` exits 0 with no result
// lines, and silently committing an empty phase would let a typo pass
// for a measurement.
func record(f *File, phase, benchRegex, raw string) ([]Bench, error) {
	goos, goarch, cpu, benches := parse(raw)
	if len(benches) == 0 {
		return nil, fmt.Errorf("-bench regex %q matched no benchmarks; go test output was:\n%s",
			benchRegex, raw)
	}
	if goos != "" {
		f.Goos, f.Goarch, f.CPU = goos, goarch, cpu
	}
	f.NumCPU = runtime.NumCPU()
	f.Gomaxprocs = runtime.GOMAXPROCS(0)
	f.Phases[phase] = Phase{Benchmarks: benches}
	return benches, nil
}

// parse extracts the host header and the best repetition per benchmark
// from `go test -bench` output.
func parse(out string) (goos, goarch, cpu string, benches []Bench) {
	best := map[string]*Bench{}
	var order []string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "goos: "):
			goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			cpu = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if !ok {
				continue
			}
			cur, seen := best[b.Name]
			if !seen {
				b.Reps = 1
				best[b.Name] = &b
				order = append(order, b.Name)
				continue
			}
			cur.Reps++
			if b.NsOp < cur.NsOp {
				reps := cur.Reps
				*cur = b
				cur.Reps = reps
			}
		}
	}
	for _, name := range order {
		benches = append(benches, *best[name])
	}
	return goos, goarch, cpu, benches
}

// parseLine parses one result line, e.g.
//
//	BenchmarkMachineRun/Baseline  16  68010964 ns/op  4352245 instrs/s  16611742 B/op  135078 allocs/op
func parseLine(line string) (Bench, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Bench{}, false
	}
	b := Bench{Name: trimProcSuffix(fields[0])}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b.Iters = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsOp = v
		case "instrs/s":
			b.InstrsS = v
		case "peak-bytes":
			b.PeakBytes = v
		case "B/op":
			b.BytesOp = v
		case "allocs/op":
			b.AllocsOp = v
		}
	}
	return b, b.NsOp > 0
}

// trimProcSuffix drops the -GOMAXPROCS suffix go test appends to
// benchmark names (e.g. BenchmarkFoo-8 -> BenchmarkFoo).
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}
