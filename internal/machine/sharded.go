package machine

import (
	"fmt"

	"graphpim/internal/arena"
	"graphpim/internal/sim"
)

// Epoch-sharded scheduler (DESIGN.md §12). runSharded partitions the
// cores round-robin into Config.Shards shards and advances provably
// core-local work in parallel, while every tick that can touch shared
// machine state — the cache hierarchy and its directory, the memory
// backend's banks and link lanes, the UC ordering slots, the barrier
// bookkeeping — executes on the coordinating goroutine in exactly the
// serial scheduler's (time, core-id) order.
//
// The loop alternates between two regimes:
//
//   - Serial step: when the earliest-due core could interact with shared
//     state at its wake time (LocalHorizon == wake), the coordinator runs
//     one ordinary event step, identical to Run's.
//   - Parallel epoch: otherwise the coordinator computes the epoch bound
//     B = min over scheduled cores of LocalHorizon(wake), removes every
//     core scheduled before B from the wake queue, and hands each shard its
//     eligible cores. Shard workers replay those cores' wake chains up
//     to (but excluding) B; every tick they execute is core-local by the
//     horizon proof in internal/cpu/horizon.go, so ticks of different
//     cores touch disjoint state and commute. Per-core tick order is
//     preserved, so the interleaving is equivalent to the serial one.
//
// Counters are the one shared sink local ticks do write, so each shard's
// cores resolve their counters against a per-shard sim.Stats replica
// (wired in New). Replicas fold into the base registry — a pure sum, in
// fixed shard order — at checkpoints and end of run; since counters are
// commutative sums the fold is exact. Result: byte-identical Results at
// any shard count and any GOMAXPROCS.

// epochFanoutSpan is the minimum epoch width, in cycles, worth handing
// to worker goroutines; narrower epochs run inline on the coordinator
// because the channel round-trip would cost more than the ticks.
const epochFanoutSpan = 16

// shardDiag records the most recent parallel epoch for the shard
// auditor: the bound the workers were given and the maximum wake any of
// them processed (which must stay strictly below the bound).
type shardDiag struct {
	valid   bool
	bound   uint64
	procMax uint64
	epochs  uint64
}

// epochBatch is one shard's work for one parallel epoch: the eligible
// cores (ascending id) with their queued wake times on the way in, and
// each core's next wake time (NoWake when the core finished or lost its
// schedule) plus done count on the way out. Batches are recycled
// through the coordinator-owned freelist, so steady-state epochs
// allocate nothing.
type epochBatch struct {
	shard    int
	bound    uint64
	ids      []int32
	wakes    []uint64
	nextWake []uint64
	doneCnt  int
	procMax  uint64
	// badPark is core id + 1 if a core parked at a barrier during local
	// advance — impossible by the horizon classification (barrier
	// dispatch is shared) and fatal if it ever happens.
	badPark int32
}

const noWake = ^uint64(0)

// shardRun is the sharded scheduler's run state: the lastTick array
// shared with the serial helpers, the batch freelist, and the lazily
// started worker pool.
type shardRun struct {
	m        *Machine
	lastTick []uint64
	free     arena.FreeList[*epochBatch]
	workCh   chan *epochBatch
	resCh    chan struct{}
}

func (m *Machine) runSharded(maxCycles uint64) Result {
	n := len(m.cores)
	numShards := len(m.shardStats)
	wake := sim.NewWakeups(n)
	lastTick := make([]uint64, n)
	for i := 0; i < n; i++ {
		wake.Schedule(i, 0)
	}
	var now uint64
	done, parked := 0, 0

	r := &shardRun{m: m, lastTick: lastTick}
	defer r.stop()
	batchOf := make([]*epochBatch, numShards)
	busy := make([]*epochBatch, 0, numShards)
	batchCap := (n + numShards - 1) / numShards

	for done < n {
		t, ok := wake.Min()
		if !ok {
			m.releaseBarrier(wake, now, done, &parked)
			continue
		}
		if maxCycles > 0 && t > maxCycles {
			return m.truncate(maxCycles, now, lastTick)
		}
		// Fast path: the earliest-due core may touch shared state at its
		// wake time, so there is no parallel window. One serial event
		// step, identical to the serial scheduler's.
		if m.cores[wake.MinID()].LocalHorizon(t) == t {
			now = t
			m.stepAt(now, wake, lastTick, &done, &parked)
			m.shardedCheckDue(now, wake, done, parked)
			continue
		}
		// Epoch bound: the earliest tick, over every scheduled core,
		// that could touch shared state. Clamped so the epoch never
		// advances past a maxCycles truncation point.
		bound := noWake
		for id := 0; id < n; id++ {
			if !wake.Scheduled(id) {
				continue
			}
			if h := m.cores[id].LocalHorizon(wake.At(id)); h < bound {
				bound = h
			}
		}
		if clamp := maxCycles + 1; maxCycles > 0 && clamp > maxCycles && bound > clamp {
			bound = clamp
		}
		if bound <= t {
			// A core tied at t is shared-now even though the min-id one
			// is local; fall back to a serial step.
			now = t
			m.stepAt(now, wake, lastTick, &done, &parked)
			m.shardedCheckDue(now, wake, done, parked)
			continue
		}
		// Gather every core scheduled before the bound into its shard's
		// batch and unschedule it; the workers own those cores until the
		// join.
		busy = busy[:0]
		for id := 0; id < n; id++ {
			if !wake.Scheduled(id) || wake.At(id) >= bound {
				continue
			}
			s := m.shardOf[id]
			b := batchOf[s]
			if b == nil {
				b = r.getBatch(s, batchCap)
				b.bound = bound
				batchOf[s] = b
				busy = append(busy, b)
			}
			b.ids = append(b.ids, int32(id))
			b.wakes = append(b.wakes, wake.At(id))
		}
		for _, b := range busy {
			for _, id := range b.ids {
				wake.Remove(int(id))
			}
		}
		if len(busy) == 1 || bound-t < epochFanoutSpan {
			for _, b := range busy {
				r.advance(b)
			}
		} else {
			r.fanOut(busy)
		}
		// Join in fixed shard order: reschedule, count completions, and
		// advance `now` to the latest event any shard processed (the
		// same value the serial scheduler's `now` would hold after
		// replaying the epoch's ticks in global order).
		for _, b := range busy {
			if b.badPark != 0 {
				panic(fmt.Sprintf("machine: core %d parked at a barrier during local advance (bound %d)",
					b.badPark-1, b.bound))
			}
			for k, id := range b.ids {
				if nw := b.nextWake[k]; nw != noWake {
					wake.Schedule(int(id), nw)
				}
			}
			done += b.doneCnt
			if b.procMax > now {
				now = b.procMax
			}
			batchOf[b.shard] = nil
			r.putBatch(b)
		}
		m.shardDiag.valid = true
		m.shardDiag.bound = bound
		m.shardDiag.procMax = now
		m.shardDiag.epochs++
		m.shardedCheckDue(now, wake, done, parked)
	}

	m.flushTicks(now, lastTick)
	if m.checks != nil {
		m.mergeShardStats()
		m.checkpoint(now, wake, done, parked, true)
	}
	return m.result(now)
}

// shardedCheckDue runs a periodic checkpoint if one is owed, folding the
// shard counter replicas first so cross-subsystem counter identities
// (auditStats) see the same totals a serial run would.
func (m *Machine) shardedCheckDue(now uint64, wake *sim.Wakeups, done, parked int) {
	if m.checks != nil && m.checks.Due(now) {
		m.mergeShardStats()
		m.checkpoint(now, wake, done, parked, false)
	}
}

// mergeShardStats folds every shard's counter replica into the base
// registry, in shard order, leaving the replicas zeroed. A no-op on
// serial machines. Safe to call repeatedly; the fold is sum-preserving.
func (m *Machine) mergeShardStats() {
	for _, st := range m.shardStats {
		st.DrainInto(m.stats)
	}
}

// advance replays one shard's cores through their wake chains up to the
// epoch bound. Every tick in here is core-local by the LocalHorizon
// contract: it may touch the core's own state and the shard's counter
// replica, nothing else.
func (r *shardRun) advance(b *epochBatch) {
	m := r.m
	for k, id32 := range b.ids {
		id := int(id32)
		c := m.cores[id]
		w := b.wakes[k]
		var next uint64
		for {
			next = tickCore(c, w, w-r.lastTick[id])
			r.lastTick[id] = w
			if w > b.procMax {
				b.procMax = w
			}
			if c.Done() {
				b.doneCnt++
				next = noWake
				break
			}
			if c.WaitingBarrier() {
				b.badPark = id32 + 1
				next = noWake
				break
			}
			if next == noWake {
				// A live core with no self-wake: leave it unscheduled;
				// the empty-queue check reports the deadlock exactly as
				// the serial loop does.
				break
			}
			if next <= w {
				next = w + 1
			}
			if next >= b.bound {
				break
			}
			w = next
		}
		b.nextWake[k] = next
	}
}

// fanOut runs the epoch's batches on the worker pool, keeping one for
// the coordinator itself; it returns only after every batch completed,
// so the join reads worker-written state with channel-established
// ordering.
func (r *shardRun) fanOut(busy []*epochBatch) {
	if r.workCh == nil {
		// Lazy start: memory-bound runs that never open a wide epoch
		// pay for no goroutines at all.
		r.workCh = make(chan *epochBatch, len(r.m.shardStats))
		r.resCh = make(chan struct{}, len(r.m.shardStats))
		for i := 1; i < len(r.m.shardStats); i++ {
			go r.worker()
		}
	}
	for _, b := range busy[1:] {
		r.workCh <- b
	}
	r.advance(busy[0])
	for range busy[1:] {
		<-r.resCh
	}
}

func (r *shardRun) worker() {
	for b := range r.workCh {
		r.advance(b)
		r.resCh <- struct{}{}
	}
}

// stop shuts the worker pool down at end of run.
func (r *shardRun) stop() {
	if r.workCh != nil {
		close(r.workCh)
	}
}

// getBatch takes a recycled batch from the freelist (or builds one
// sized for this machine's shard width) and resets it for a new epoch.
func (r *shardRun) getBatch(shard, capHint int) *epochBatch {
	b, ok := r.free.Get()
	if !ok {
		b = &epochBatch{
			ids:      make([]int32, 0, capHint),
			wakes:    make([]uint64, 0, capHint),
			nextWake: make([]uint64, capHint),
		}
	}
	b.shard = shard
	b.ids = b.ids[:0]
	b.wakes = b.wakes[:0]
	b.doneCnt = 0
	b.procMax = 0
	b.badPark = 0
	return b
}

// putBatch recycles a joined batch.
func (r *shardRun) putBatch(b *epochBatch) { r.free.Put(b) }

// auditShards is the sharded scheduler's sanitizer (registered only on
// sharded machines): the core-to-shard assignment must be a partition,
// no parallel epoch may have processed a wake at or past its bound, and
// counter merging must conserve totals — the base registry plus every
// live replica must account for exactly the retirements the cores
// report, or DrainInto lost or double-counted an update.
func (m *Machine) auditShards(uint64) error {
	numShards := len(m.shardStats)
	if len(m.shardOf) != len(m.cores) {
		return fmt.Errorf("shard map covers %d cores, machine has %d", len(m.shardOf), len(m.cores))
	}
	counts := make([]int, numShards)
	for i, s := range m.shardOf {
		if s != i%numShards {
			return fmt.Errorf("core %d assigned to shard %d, want %d", i, s, i%numShards)
		}
		counts[s]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(m.cores) {
		return fmt.Errorf("shards cover %d cores, machine has %d", total, len(m.cores))
	}
	if m.shardDiag.valid && m.shardDiag.procMax >= m.shardDiag.bound {
		return fmt.Errorf("epoch processed wake %d at or past its bound %d",
			m.shardDiag.procMax, m.shardDiag.bound)
	}
	merged := m.stats.Get("cpu.retired")
	for _, st := range m.shardStats {
		merged += st.Get("cpu.retired")
	}
	var want uint64
	for _, c := range m.cores {
		want += c.Retired()
	}
	if merged != want {
		return fmt.Errorf("base+replica cpu.retired = %d but cores retired %d", merged, want)
	}
	return nil
}
