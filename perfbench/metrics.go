package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the end-to-end metrics from the untraced passes.
func endToEnd(setup setupResult, passes []*passResult) map[string]metric {
	wall := medianWall(passes)
	p := passes[0]
	return map[string]metric{
		"setup_s":     {setup.seconds, "s"},
		"wall_s":      {wall, "s"},
		"sim_mips":    {float64(p.instrs) / wall / 1e6, "M_instrs/s"},
		"trace_mrps":  {float64(p.records) / wall / 1e6, "M_records/s"},
		"peak_rss_mb": {peakRSSMB(passes), "MB"},
	}
}

func rssMB(passes []*passResult) []float64 {
	peaks := make([]float64, len(passes))
	for i, p := range passes {
		peaks[i] = float64(p.peakRSS) / (1 << 20)
	}
	return peaks
}

// peakRSSMB is the median over passes of each pass's peak resident set
// size. Where /proc/self/statm cannot be read it falls back to the
// process's maximum RSS from getrusage.
func peakRSSMB(passes []*passResult) float64 {
	if m := median(rssMB(passes)); m > 0 {
		return m
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// kindKeys names each configuration kind in metric names.
var kindKeys = map[string]string{"Baseline": "baseline", "U-PEI": "upei", "GraphPIM": "graphpim"}

// layerUnits lists the per-layer metrics in the order README.md gives them.
var layerUnits = [][2]string{
	{"graph.build_s", "s"}, {"graph.ns_per_edge", "ns"},
	{"emit.s", "s"}, {"emit.records", "count"}, {"emit.ns_per_record", "ns"},
	{"trace.encode_s", "s"}, {"trace.decode_s", "s"}, {"trace.bytes_per_record", "B"},
	{"machine.replay_s", "s"},
	{"machine.ns_per_instr.baseline", "ns"}, {"machine.ns_per_instr.upei", "ns"},
	{"machine.ns_per_instr.graphpim", "ns"}, {"machine.ns_per_instr.hmc", "ns"},
	{"machine.ns_per_instr.ddr", "ns"}, {"machine.ns_per_instr.lpddr", "ns"},
	{"machine.ns_per_instr.vault", "ns"}, {"machine.ns_per_cycle", "ns"},
	{"machine.cycles", "count"}, {"cpu.retired", "count"}, {"cache.l1.access", "count"},
	{"cache.l3.miss", "count"}, {"cache.coherence.invalidations", "count"},
	{"mem.host_atomics", "count"}, {"mem.pim_atomics", "count"}, {"mem.reads", "count"},
	{"pool.busy_frac", "fraction"}, {"cell.p50_s", "s"}, {"cell.max_s", "s"},
	{"trace_overhead_frac", "fraction"},
}

// layerMetrics derives the per-layer metrics: times from each traced
// pass's spans (median over passes), exact counts from the first pass.
func layerMetrics(r *runner, setup setupResult, untraced, traced []*passResult) map[string]metric {
	perPass := map[string][]float64{}
	for _, p := range traced {
		for k, v := range passLayers(r, p) {
			perPass[k] = append(perPass[k], v)
		}
	}
	vals := map[string]float64{}
	for k, vs := range perPass {
		vals[k] = median(vs)
	}
	vals["graph.build_s"] = setup.build
	vals["graph.ns_per_edge"] = ratio(setup.build*1e9, float64(r.g.NumEdges()))

	p := untraced[0]
	vals["emit.records"] = float64(p.records)
	vals["trace.bytes_per_record"] = ratio(float64(p.bytes), float64(p.records))
	for _, u := range p.units[len(p.emits):] {
		vals["machine.cycles"] += float64(u.res.Cycles)
		for _, k := range []string{"cpu.retired", "cache.l1.access", "cache.l3.miss",
			"cache.coherence.invalidations", "mem.host_atomics", "mem.pim_atomics"} {
			vals[k] += float64(u.res.Stats[k])
		}
		vals["mem.reads"] += float64(u.res.MemStat("mem.reads"))
	}
	vals["trace_overhead_frac"] = medianWall(traced)/medianWall(untraced) - 1

	out := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		out[lu[0]] = metric{vals[lu[0]], lu[1]}
	}
	return out
}

// passLayers derives one traced pass's span-timed layer metrics.
func passLayers(r *runner, p *passResult) map[string]float64 {
	byName := map[string]float64{}
	replayNS := map[int]float64{}
	var cells []float64
	var busy float64
	for _, s := range p.spans {
		d := dur(s).Seconds()
		byName[s.Name] += d
		switch s.Name {
		case "machine.replay":
			replayNS[s.Unit] += d * 1e9
		case "unit":
			cells = append(cells, d)
			busy += d
		}
	}
	m := map[string]float64{
		"emit.s":             byName["emit"],
		"emit.ns_per_record": ratio(byName["emit"]*1e9, float64(p.records)),
		"trace.encode_s":     byName["trace.encode"],
		"trace.decode_s":     byName["trace.decode"],
		"machine.replay_s":   byName["machine.replay"],
		"pool.busy_frac":     busy / (float64(r.workers) * p.wall.Seconds()),
		"cell.p50_s":         median(cells),
		"cell.max_s":         maxOf(cells),
	}
	ns, instrs := map[string]float64{}, map[string]float64{}
	var allNS, cycles float64
	for i, u := range p.units[len(p.emits):] {
		c := r.s.cells[u.cell]
		d := replayNS[len(p.emits)+i]
		for _, key := range []string{kindKeys[string(c.kind)], c.memory} {
			ns[key] += d
			instrs[key] += float64(u.res.Instructions)
		}
		allNS += d
		cycles += float64(u.res.Cycles)
	}
	for _, key := range []string{"baseline", "upei", "graphpim", "hmc", "ddr", "lpddr", "vault"} {
		m["machine.ns_per_instr."+key] = ratio(ns[key], instrs[key])
	}
	m["machine.ns_per_cycle"] = ratio(allNS, cycles)
	return m
}

func walls(ps []*passResult) []float64 {
	ws := make([]float64, len(ps))
	for i, p := range ps {
		ws[i] = p.wall.Seconds()
	}
	return ws
}

func medianWall(ps []*passResult) float64 { return median(walls(ps)) }

// ratio is a/b, or 0 when b is 0: a workload that never runs a layer
// reports 0 for it.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// rssSampler polls the process's resident set size from a goroutine and
// keeps the largest value seen.
type rssSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

// rssEvery is the polling period: peaks shorter than this can be missed,
// but a trace held across a unit lasts far longer.
const rssEvery = 5 * time.Millisecond

func sampleRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			s.peak = max(s.peak, residentBytes())
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the peak in bytes, 0 if the
// resident size could not be read.
func (s *rssSampler) stop() uint64 {
	close(s.stopc)
	<-s.done
	return max(s.peak, residentBytes())
}

// residentBytes reads the resident set size from /proc/self/statm.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}
