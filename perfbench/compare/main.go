// Command compare reads two sets of perfbench results and prints, for
// each workload and metric, each side's median, quartiles and run count,
// and a verdict.
//
// A result file is the standard output of one perfbench run: its
// "provenance" line and its last line, the JSON result. Each set is a
// directory of such files. Runs pair up by seed (by file name where the
// seeds do not match), and the verdicts follow the repository's rule for
// claiming a gain:
//
//   - better: the change wins at least 9 of 10 pairs (ties count for
//     neither side) and its median differs from the parent's by more
//     than the parent's interquartile range;
//   - worse: the same rule with the sides swapped, or, for an end-to-end
//     metric, a median worse than the parent's by more than its bound;
//   - unresolved: an end-to-end metric whose spread on either side is
//     wider than its bound, unless every run of one side beats every run
//     of the other;
//   - identical or differs, for exact counts;
//   - same, otherwise.
//
// Usage, from the perfbench directory:
//
//	go run ./compare [-bench ../BENCHMARK.json] PARENT_DIR CHANGE_DIR
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchmarkFile is the part of BENCHMARK.json the verdicts need.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics
}

// result is one parsed run.
type result struct {
	file       string
	provenance map[string]any
	workload   string
	seed       uint64
	metrics    map[string]float64
	failed     int
	digest     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", filepath.Join("..", "BENCHMARK.json"), "the benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "compare: need PARENT_DIR and CHANGE_DIR")
		return 2
	}
	specs, err := loadSpecs(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	var sets [2][]result
	for i := range sets {
		if sets[i], err = loadDir(fs.Arg(i)); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
	}
	for _, w := range provenanceWarnings(sets[0], sets[1]) {
		fmt.Fprintln(stdout, "warning:", w)
	}
	report(stdout, specs, sets[0], sets[1])
	return 0
}

func loadSpecs(path string) (map[string]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	specs := map[string]metricSpec{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		specs[m.Name] = m
	}
	return specs, nil
}

func loadDir(dir string) ([]result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []result
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		r, err := parseResult(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

// parseResult reads one run's standard output.
func parseResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	r := result{file: filepath.Base(path), metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "provenance "); ok {
			if err := json.Unmarshal([]byte(rest), &r.provenance); err != nil {
				return r, fmt.Errorf("%s: provenance: %w", path, err)
			}
		}
		if rest, ok := strings.CutPrefix(line, "sim_digest "); ok {
			_, r.digest, _ = strings.Cut(rest, " ")
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.provenance == nil {
		return r, fmt.Errorf("%s: no provenance line", path)
	}
	r.workload, _ = r.provenance["workload"].(string)
	if s, ok := r.provenance["seed"].(float64); ok {
		r.seed = uint64(s)
	}
	var out struct {
		Failed  *int `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &out); err != nil || out.Failed == nil {
		return r, fmt.Errorf("%s: last line is not a result: %v", path, err)
	}
	r.failed = *out.Failed
	for k, v := range out.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

// provenanceWarnings names the host facts that differ between the sets:
// a comparison across CPUs or toolchains measures the hosts, not the code.
func provenanceWarnings(a, b []result) []string {
	var out []string
	for _, key := range []string{"cpu", "go", "nproc", "gomaxprocs", "workers"} {
		va, vb := distinct(a, key), distinct(b, key)
		if len(va) > 1 || len(vb) > 1 || (len(va) == 1 && len(vb) == 1 && va[0] != vb[0]) {
			out = append(out, fmt.Sprintf("%s differs: parent %v, change %v", key, va, vb))
		}
	}
	return out
}

func distinct(rs []result, key string) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rs {
		v := fmt.Sprint(r.provenance[key])
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func report(w io.Writer, specs map[string]metricSpec, a, b []result) {
	fmt.Fprintf(w, "%-12s %-30s %4s %12s %25s %4s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "n", "parent", "parent q1..q3", "n", "change", "change q1..q3", "delta", "wins", "verdict")
	for _, wl := range workloadsOf(a, b) {
		ra, rb := only(a, wl), only(b, wl)
		if fa, fb := failures(ra), failures(rb); fa+fb > 0 {
			fmt.Fprintf(w, "%-12s failed units: parent %d, change %d\n", wl, fa, fb)
		}
		fmt.Fprintf(w, "%-12s sim_digest %s\n", wl, digestVerdict(ra, rb))
		for _, name := range metricsOf(ra, rb) {
			spec, ok := specs[name]
			if !ok {
				spec = metricSpec{Name: name, Better: "lower"}
			}
			pa, pb := pairs(ra, rb, name)
			va, vb := values(ra, name), values(rb, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			wins, n := pairWins(pa, pb, spec.Better)
			fmt.Fprintf(w, "%-12s %-30s %4d %12.6g %12.6g..%-12.6g %4d %12.6g %12.6g..%-12.6g %+7.2f%% %2d/%-3d  %s\n",
				wl, name, len(va), qa[1], qa[0], qa[2], len(vb), qb[1], qb[0], qb[2],
				100*rel(qb[1], qa[1]), wins, n, verdict(spec, va, vb, pa, pb))
		}
	}
}

// digestVerdict compares the simulated-output digests of runs paired by
// seed: a change meant only to speed the simulator up must leave them
// identical.
func digestVerdict(a, b []result) string {
	bySeed := map[uint64]string{}
	for _, r := range b {
		bySeed[r.seed] = r.digest
	}
	same, n := 0, 0
	for _, r := range a {
		if d, ok := bySeed[r.seed]; ok {
			n++
			if d == r.digest {
				same++
			}
		}
	}
	if n == 0 {
		return "no seeds in common"
	}
	if same == n {
		return fmt.Sprintf("identical on %d paired seeds", n)
	}
	return fmt.Sprintf("DIFFERS on %d of %d paired seeds", n-same, n)
}

// verdict applies the rule in the package comment.
func verdict(spec metricSpec, va, vb, pa, pb []float64) string {
	if spec.Unit == "count" {
		for i := range pa {
			if pa[i] != pb[i] {
				return "differs"
			}
		}
		return "identical"
	}
	qa, qb := quartiles(va), quartiles(vb)
	better := func(x, y float64) bool { // x better than y
		if spec.Better == "higher" {
			return x > y
		}
		return x < y
	}
	winsB, n := pairWins(pa, pb, spec.Better)
	winsA, _ := pairWins(pb, pa, spec.Better)
	gap := math.Abs(qb[1] - qa[1])
	iqrA := qa[2] - qa[0]
	switch {
	case n > 0 && 10*winsB >= 9*n && gap > iqrA && better(qb[1], qa[1]):
		return "better"
	case n > 0 && 10*winsA >= 9*n && gap > iqrA && better(qa[1], qb[1]):
		return "worse"
	}
	if spec.Bound == 0 {
		return "same"
	}
	if spread(qa) > spec.Bound || spread(qb) > spec.Bound {
		switch {
		case allBeat(vb, va, better):
			return "better (every run)"
		case allBeat(va, vb, better):
			return "worse (every run)"
		}
		return "unresolved (spread wider than bound)"
	}
	if better(qa[1], qb[1]) && gap > spec.Bound*math.Abs(qa[1]) {
		return fmt.Sprintf("worse (beyond bound %.2f)", spec.Bound)
	}
	return fmt.Sprintf("within bound %.2f", spec.Bound)
}

// pairs returns the metric's values of runs present on both sides,
// matched by seed, or by position when no seeds match.
func pairs(a, b []result, name string) (pa, pb []float64) {
	bySeed := map[uint64]result{}
	for _, r := range b {
		bySeed[r.seed] = r
	}
	for _, r := range a {
		if m, ok := bySeed[r.seed]; ok {
			pa, pb = append(pa, r.metrics[name]), append(pb, m.metrics[name])
		}
	}
	if len(pa) > 0 {
		return pa, pb
	}
	for i := 0; i < min(len(a), len(b)); i++ {
		pa, pb = append(pa, a[i].metrics[name]), append(pb, b[i].metrics[name])
	}
	return pa, pb
}

// pairWins counts the pairs in which b is better than a; ties count for
// neither side.
func pairWins(pa, pb []float64, better string) (wins, n int) {
	for i := range pa {
		if (better == "higher" && pb[i] > pa[i]) || (better != "higher" && pb[i] < pa[i]) {
			wins++
		}
	}
	return wins, len(pa)
}

func allBeat(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// quartiles returns q1, median, q3 as Python's statistics.quantiles(n=4)
// computes them (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile range as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// rel is (x-y)/|y|, or 0 when y is 0.
func rel(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return (x - y) / math.Abs(y)
}

func workloadsOf(sets ...[]result) []string {
	seen := map[string]bool{}
	var out []string
	for _, rs := range sets {
		for _, r := range rs {
			if !seen[r.workload] {
				seen[r.workload] = true
				out = append(out, r.workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

func only(rs []result, workload string) []result {
	var out []result
	for _, r := range rs {
		if r.workload == workload {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].file < out[j].file })
	return out
}

func metricsOf(a, b []result) []string {
	seen := map[string]bool{}
	var out []string
	for _, rs := range [][]result{a, b} {
		for _, r := range rs {
			for k := range r.metrics {
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.metrics[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func failures(rs []result) int {
	n := 0
	for _, r := range rs {
		n += r.failed
	}
	return n
}
