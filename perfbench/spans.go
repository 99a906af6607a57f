package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public function.
type span struct {
	ID     int    `json:"id"`     // unique within its pass
	Parent int    `json:"parent"` // ID of the enclosing span; -1 for a root
	Unit   int    `json:"unit"`   // index into the pass's units; -1 for set-up
	Pass   int    `json:"pass"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the children's durations
}

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, which is how the untraced passes run.
type tracer struct {
	epoch time.Time
	pass  int
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time, pass int) *tracer { return &tracer{epoch: epoch, pass: pass} }

// spanner records the spans of one unit on the goroutine that runs it:
// spans begun while another is open become its children.
type spanner struct {
	t     *tracer
	unit  int
	stack []int
}

// unit opens a unit's root span. It returns nil on a nil tracer.
func (t *tracer) unit(id int) *spanner {
	if t == nil {
		return nil
	}
	sp := &spanner{t: t, unit: id}
	sp.begin("unit")
	return sp
}

func (s *spanner) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	id := len(s.t.spans)
	s.t.spans = append(s.t.spans, span{ID: id, Parent: parent, Unit: s.unit, Pass: s.t.pass,
		Name: name, Start: now, End: -1})
	s.t.mu.Unlock()
	s.stack = append(s.stack, id)
	return id
}

// end closes span id and any span begun inside it that is still open.
func (s *spanner) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	for n := len(s.stack); n > 0; n-- {
		top := s.stack[n-1]
		s.stack = s.stack[:n-1]
		if s.t.spans[top].End < 0 {
			s.t.spans[top].End = now
		}
		if top == id {
			break
		}
	}
	s.t.mu.Unlock()
}

// close ends the unit's root span.
func (s *spanner) close() {
	if s != nil && len(s.stack) > 0 {
		s.end(s.stack[0])
	}
}

// record adds a finished span measured outside any unit (graph build).
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Unit: -1, Pass: t.pass, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// finish fills in self times and returns the spans. Call it once every
// unit has returned.
func (t *tracer) finish() []span {
	spans := t.spans
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			spans[s.Parent].Self -= s.End - s.Start
		}
	}
	return spans
}

func dur(s span) time.Duration { return time.Duration(s.End - s.Start) }

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// printSelfTimes prints each span name's self time per traced pass, and
// how the pool's capacity (workers × wall) splits into unit self time
// and idle time.
func printSelfTimes(w io.Writer, spans []span, passes []*passResult, workers int) {
	self := map[string]time.Duration{}
	count := map[string]int{}
	var unitSelf time.Duration
	for _, s := range spans {
		self[s.Name] += time.Duration(s.Self)
		count[s.Name]++
		if s.Unit >= 0 {
			unitSelf += time.Duration(s.Self)
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	n := float64(len(passes))
	fmt.Fprintf(w, "span self time, mean per traced pass (%d passes):\n", len(passes))
	for _, name := range names {
		fmt.Fprintf(w, "  %-16s %9.4f s  %6.0f spans\n", name, self[name].Seconds()/n, float64(count[name])/n)
	}
	var wall time.Duration
	for _, p := range passes {
		wall += p.wall
	}
	capacity := time.Duration(workers) * wall
	fmt.Fprintf(w, "accounting: unit self %.4f s + pool idle %.4f s = %d workers x wall %.4f s\n",
		unitSelf.Seconds()/n, (capacity-unitSelf).Seconds()/n, workers, wall.Seconds()/n)
}
