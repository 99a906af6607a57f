package sim

import (
	"fmt"
	"math/bits"
)

// Wakeups is the event queue of the event-driven simulation loop: one
// optional wake time per dense actor id (core id in the machine model).
// Each actor has at most one scheduled wake time, Schedule inserts or
// moves it, and PopMin yields due actors ordered by (time, id).
//
// The (time, id) order is load-bearing for determinism: actors scheduled
// for the same cycle are served in ascending id order, which is exactly
// the order the legacy scan loop ticked cores. Event-driven replay is
// therefore cycle-identical to the scan loop (see the equivalence
// property test in internal/machine).
//
// Each actor's entry is one packed key, time<<shift | id, where shift is
// bits.Len(n) for n actors, and an unscheduled actor holds noKey (^0). Because
// ids fit below shift, comparing keys as unsigned integers compares
// (time, id) lexicographically, so the queue minimum is a plain min over
// at most 32 keys, with no branch per slot. The minimum is cached and
// recomputed only after it is popped or moved later.
type Wakeups struct {
	keys   []uint64 // actor id -> packed key, noKey when unscheduled
	shift  uint     // bits.Len(n): width of the id field
	idMask uint64   // 1<<shift - 1
	n      int      // number of scheduled actors
	min    uint64   // cached minimum key, valid when minOK
	minOK  bool
}

// noKey marks an unscheduled actor. No scheduled key equals it: the id
// field of a scheduled key is at most n-1 < 1<<shift - 1.
const noKey = ^uint64(0)

// NewWakeups returns an empty queue for actor ids in [0, n).
func NewWakeups(n int) *Wakeups {
	w := &Wakeups{
		keys:  make([]uint64, n),
		shift: uint(bits.Len(uint(n))),
	}
	w.idMask = 1<<w.shift - 1
	for i := range w.keys {
		w.keys[i] = noKey
	}
	return w
}

// maxTime returns the largest wake time Schedule accepts: packing leaves
// 64 - bits.Len(n) bits for the time.
func (w *Wakeups) maxTime() uint64 { return noKey >> w.shift }

// Len returns the number of scheduled actors.
func (w *Wakeups) Len() int { return w.n }

// Scheduled reports whether id currently has a wake time.
func (w *Wakeups) Scheduled(id int) bool { return w.keys[id] != noKey }

// Schedule sets id's wake time to t, inserting the actor if absent or
// moving it if already queued. It panics if t exceeds maxTime: a wrapped
// key would silently reorder actors due in the same cycle.
func (w *Wakeups) Schedule(id int, t uint64) {
	if t > w.maxTime() {
		w.overflow(id, t)
	}
	key := t<<w.shift | uint64(id)
	old := w.keys[id]
	if old == noKey {
		w.n++
	}
	w.keys[id] = key
	if w.minOK {
		if key < w.min {
			w.min = key
		} else if old == w.min {
			w.minOK = false
		}
	}
}

// overflow reports a wake time past the packed-key bound; kept out of
// Schedule so the hot path stays small.
func (w *Wakeups) overflow(id int, t uint64) {
	panic(fmt.Sprintf("sim: wake time %d for actor %d exceeds the packed-key bound %d", t, id, w.maxTime()))
}

// minKey returns the (time, id)-smallest key, noKey on an empty queue.
func (w *Wakeups) minKey() uint64 {
	if !w.minOK {
		m := noKey
		for _, k := range w.keys {
			m = min(m, k)
		}
		w.min, w.minOK = m, true
	}
	return w.min
}

// Min returns the earliest scheduled wake time; ok is false when the
// queue is empty.
func (w *Wakeups) Min() (t uint64, ok bool) {
	k := w.minKey()
	if k == noKey {
		return 0, false
	}
	return k >> w.shift, true
}

// Before reports whether (t, id) orders before every queued key, i.e.
// whether id scheduled at t would be the next PopMin. The machine loop
// asks it of a core it just popped and ticked, to tick that core again
// without the Schedule/PopMin round trip; the queued minimum is cached,
// so repeated queries cost one comparison. A t past the packed-key bound
// reports false, leaving the overflow to Schedule.
func (w *Wakeups) Before(id int, t uint64) bool {
	return t <= w.maxTime() && t<<w.shift|uint64(id) < w.minKey()
}

// PopMin removes and returns the (time, id)-smallest entry. It panics on
// an empty queue; guard with Len or Min.
func (w *Wakeups) PopMin() (id int, t uint64) {
	k := w.minKey()
	if k == noKey {
		panic("sim: PopMin on an empty wake queue")
	}
	id = int(k & w.idMask)
	w.keys[id] = noKey
	w.n--
	w.minOK = false
	return id, k >> w.shift
}
