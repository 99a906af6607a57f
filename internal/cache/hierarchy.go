package cache

import (
	"fmt"

	"graphpim/internal/mem"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// Backend is the memory below the L3: the line-granular subset of the
// mem.Backend contract. ReadLine is on the critical path and returns its
// latency; WriteLine is a posted writeback whose latency is off the
// critical path but whose bandwidth and bank occupancy still count.
type Backend = mem.LineBackend

// Level identifies where an access was satisfied.
type Level uint8

// Hierarchy levels.
const (
	LevelL1 Level = 1 + iota
	LevelL2
	LevelL3
	LevelMem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "mem"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Config is the cache geometry and latency configuration (Table IV
// defaults via DefaultConfig).
type Config struct {
	NumCores int
	LineSize int

	L1Size, L1Ways int
	L1Lat          uint64

	L2Size, L2Ways int
	L2Lat          uint64

	L3Size, L3Ways int
	L3Lat          uint64

	// Prefetch configures the L3 next-line prefetcher (disabled by
	// default, matching the paper's baseline).
	Prefetch PrefetchConfig
}

// DefaultConfig returns the Table IV cache configuration: 32KB 8-way L1,
// 256KB 8-way L2, 16MB 16-way L3, 64-byte lines.
func DefaultConfig(numCores int) Config {
	return Config{
		NumCores: numCores,
		LineSize: 64,
		L1Size:   32 << 10, L1Ways: 8, L1Lat: 4,
		L2Size: 256 << 10, L2Ways: 8, L2Lat: 12,
		L3Size: 16 << 20, L3Ways: 16, L3Lat: 36,
	}
}

// AccessResult reports the outcome of one cache access.
type AccessResult struct {
	// Latency is the total load-to-use latency in cycles, including any
	// memory fetch.
	Latency uint64
	// Level is where the request was satisfied.
	Level Level
	// WalkLatency is the on-chip portion: tag checks plus coherence
	// actions, excluding the off-chip fetch. Fig. 9's "Atomic-inCache"
	// attribution uses this.
	WalkLatency uint64
	// CoherenceExtra is the subset of WalkLatency spent on coherence
	// actions (upgrades, owner fetches, invalidations).
	CoherenceExtra uint64
}

// hierCounters holds pre-resolved stat handles for the per-access paths
// (see sim.Stats.Counter — no map lookups on the hot path).
type hierCounters struct {
	l1Access, l1Hit, l1Miss sim.Counter
	l2Access, l2Hit, l2Miss sim.Counter
	l3Access, l3Hit, l3Miss sim.Counter

	upgrades      sim.Counter
	c2c           sim.Counter
	invalidations sim.Counter
	l1BackInval   sim.Counter
	l3BackInval   sim.Counter

	memReads   sim.Counter
	writebacks sim.Counter

	pfIssued    sim.Counter
	pfRedundant sim.Counter
	pfUseful    sim.Counter
}

func resolveHierCounters(stats *sim.Stats) hierCounters {
	return hierCounters{
		l1Access: stats.Counter("cache.l1.access"),
		l1Hit:    stats.Counter("cache.l1.hit"),
		l1Miss:   stats.Counter("cache.l1.miss"),
		l2Access: stats.Counter("cache.l2.access"),
		l2Hit:    stats.Counter("cache.l2.hit"),
		l2Miss:   stats.Counter("cache.l2.miss"),
		l3Access: stats.Counter("cache.l3.access"),
		l3Hit:    stats.Counter("cache.l3.hit"),
		l3Miss:   stats.Counter("cache.l3.miss"),

		upgrades:      stats.Counter("cache.coherence.upgrades"),
		c2c:           stats.Counter("cache.coherence.c2c"),
		invalidations: stats.Counter("cache.coherence.invalidations"),
		l1BackInval:   stats.Counter("cache.inclusion.l1_backinval"),
		l3BackInval:   stats.Counter("cache.inclusion.l3_backinval"),

		memReads:   stats.Counter("cache.mem.reads"),
		writebacks: stats.Counter("cache.mem.writebacks"),

		pfIssued:    stats.Counter("cache.prefetch.issued"),
		pfRedundant: stats.Counter("cache.prefetch.redundant"),
		pfUseful:    stats.Counter("cache.prefetch.useful"),
	}
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg     Config
	backend Backend
	stats   *sim.Stats
	ctr     hierCounters

	l1, l2 []*array // per core
	l3     *array
}

// New builds a Hierarchy. stats may be shared with other components.
func New(cfg Config, backend Backend, stats *sim.Stats) *Hierarchy {
	if cfg.NumCores <= 0 {
		panic("cache: NumCores must be positive")
	}
	if cfg.NumCores > 32 {
		panic("cache: directory bitmask supports at most 32 cores")
	}
	h := &Hierarchy{cfg: cfg, backend: backend, stats: stats, ctr: resolveHierCounters(stats)}
	for c := 0; c < cfg.NumCores; c++ {
		h.l1 = append(h.l1, newArray(cfg.L1Size, cfg.L1Ways, cfg.LineSize))
		h.l2 = append(h.l2, newArray(cfg.L2Size, cfg.L2Ways, cfg.LineSize))
	}
	h.l3 = newArray(cfg.L3Size, cfg.L3Ways, cfg.LineSize)
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

func bit(core int) uint32 { return 1 << uint(core) }

// dropPrivate removes lineAddr from core's private caches and reports
// whether any dropped copy was dirty.
func (h *Hierarchy) dropPrivate(core int, lineAddr memmap.Addr) (dirty bool) {
	if old, was := h.l1[core].invalidate(lineAddr); was && old.dirty {
		dirty = true
	}
	if old, was := h.l2[core].invalidate(lineAddr); was && old.dirty {
		dirty = true
	}
	return dirty
}

// invalidateSharers drops every private copy of lineAddr other than
// keep's and updates its directory entry l3l. Dirty remote data merges
// into the L3 copy.
func (h *Hierarchy) invalidateSharers(l3l *line, lineAddr memmap.Addr, keep int) {
	for c := 0; c < h.cfg.NumCores; c++ {
		if c == keep || l3l.sharers&bit(c) == 0 {
			continue
		}
		if h.dropPrivate(c, lineAddr) {
			l3l.dirty = true
		}
		h.ctr.invalidations.Inc()
	}
	l3l.sharers &= bit(keep)
	if l3l.owner != int8(keep) {
		l3l.owner = -1
	}
}

// evictL1 handles an L1 victim: dirty data merges into the (inclusive) L2
// copy.
func (h *Hierarchy) evictL1(core int, ev victim) {
	if !ev.valid() || !ev.dirty {
		return
	}
	if l2l := h.l2[core].lookup(ev.tag); l2l != nil {
		l2l.dirty = true
		l2l.st = stModified
	}
}

// evictL2 handles an L2 victim: the L1 copy is back-invalidated to keep
// inclusion, dirty data merges into the L3 copy, and the directory entry
// drops this core.
func (h *Hierarchy) evictL2(core int, ev victim) {
	if !ev.valid() {
		return
	}
	dirty := ev.dirty
	if old, was := h.l1[core].invalidate(ev.tag); was {
		h.ctr.l1BackInval.Inc()
		if old.dirty {
			dirty = true
		}
	}
	if l3l := h.l3.lookup(ev.tag); l3l != nil {
		if dirty {
			l3l.dirty = true
		}
		l3l.sharers &^= bit(core)
		if l3l.owner == int8(core) {
			l3l.owner = -1
		}
	}
}

// evictL3 handles an L3 victim: every private copy is back-invalidated and
// dirty data is written back to memory.
func (h *Hierarchy) evictL3(ev victim, now uint64) {
	if !ev.valid() {
		return
	}
	dirty := ev.dirty
	for c := 0; c < h.cfg.NumCores; c++ {
		if ev.sharers&bit(c) == 0 {
			continue
		}
		if h.dropPrivate(c, ev.tag) {
			dirty = true
		}
		h.ctr.l3BackInval.Inc()
	}
	if dirty {
		h.ctr.writebacks.Inc()
		h.backend.WriteLine(ev.tag, now)
	}
}

// fillPrivate installs lineAddr into core's L2 and L1 with the given
// state, reusing the set indexes the access walk already resolved.
func (h *Hierarchy) fillPrivate(core int, l1set, l2set int, lineAddr memmap.Addr, st state) {
	_, ev2 := h.l2[core].installIn(l2set, lineAddr, st, false)
	h.evictL2(core, ev2)
	_, ev1 := h.l1[core].installIn(l1set, lineAddr, st, st == stModified)
	h.evictL1(core, ev1)
}

// Access performs a read (write=false) or write/RFO (write=true) by core
// at addr. now is the absolute cycle at which the access starts, used for
// backend timing.
//
// The walk is single-pass: each array's set index is resolved once
// (probe) and reused for victim choice and install on the way back up.
// Victim choice reads the set's rows at install time, so intervening
// evictions and back-invalidations are always seen.
func (h *Hierarchy) Access(core int, addr memmap.Addr, write bool, now uint64) AccessResult {
	lineAddr := memmap.LineAddr(addr)
	res := AccessResult{}
	res.Latency = h.cfg.L1Lat
	h.ctr.l1Access.Inc()

	// L1 probe.
	l1 := h.l1[core]
	l1set, l1slot := l1.probe(lineAddr)
	if l1slot >= 0 {
		l1.touch(l1slot)
		l1l := &l1.lines[l1slot]
		h.ctr.l1Hit.Inc()
		if !write {
			res.Level = LevelL1
			res.WalkLatency = res.Latency
			return res
		}
		if l1l.st == stModified || l1l.st == stExclusive {
			l1l.st = stModified
			l1l.dirty = true
			if l2l := h.l2[core].lookup(lineAddr); l2l != nil {
				l2l.st = stModified
			}
			if l3l := h.l3.lookup(lineAddr); l3l != nil {
				l3l.owner = int8(core)
			}
			res.Level = LevelL1
			res.WalkLatency = res.Latency
			return res
		}
		// Write hit on a Shared line: directory upgrade.
		up := h.cfg.L2Lat + h.cfg.L3Lat
		res.Latency += up
		res.CoherenceExtra += up
		h.ctr.upgrades.Inc()
		if l3l := h.l3.lookup(lineAddr); l3l != nil {
			h.invalidateSharers(l3l, lineAddr, core)
			l3l.owner = int8(core)
			l3l.sharers = bit(core)
		}
		l1l.st = stModified
		l1l.dirty = true
		if l2l := h.l2[core].lookup(lineAddr); l2l != nil {
			l2l.st = stModified
		}
		res.Level = LevelL1
		res.WalkLatency = res.Latency
		return res
	}
	h.ctr.l1Miss.Inc()

	// L2 probe.
	res.Latency += h.cfg.L2Lat
	h.ctr.l2Access.Inc()
	l2 := h.l2[core]
	l2set, l2slot := l2.probe(lineAddr)
	if l2slot >= 0 {
		l2.touch(l2slot)
		l2l := &l2.lines[l2slot]
		h.ctr.l2Hit.Inc()
		st := l2l.st
		if write {
			if st == stShared {
				up := h.cfg.L3Lat
				res.Latency += up
				res.CoherenceExtra += up
				h.ctr.upgrades.Inc()
				if l3l := h.l3.lookup(lineAddr); l3l != nil {
					h.invalidateSharers(l3l, lineAddr, core)
					l3l.owner = int8(core)
					l3l.sharers = bit(core)
				}
			} else if l3l := h.l3.lookup(lineAddr); l3l != nil {
				l3l.owner = int8(core)
			}
			st = stModified
			l2l.st = stModified
			l2l.dirty = true
		}
		_, ev1 := l1.installIn(l1set, lineAddr, st, st == stModified && write)
		h.evictL1(core, ev1)
		res.Level = LevelL2
		res.WalkLatency = res.Latency
		return res
	}
	h.ctr.l2Miss.Inc()

	// L3 probe.
	res.Latency += h.cfg.L3Lat
	h.ctr.l3Access.Inc()
	l3set, l3slot := h.l3.probe(lineAddr)
	if l3slot >= 0 {
		h.l3.touch(l3slot)
		l3l := &h.l3.lines[l3slot]
		h.ctr.l3Hit.Inc()
		if l3l.prefetched {
			l3l.prefetched = false
			h.ctr.pfUseful.Inc()
		}
		// Remote owner: cache-to-cache transfer.
		if l3l.owner >= 0 && int(l3l.owner) != core {
			res.Latency += h.cfg.L3Lat
			res.CoherenceExtra += h.cfg.L3Lat
			h.ctr.c2c.Inc()
			oc := int(l3l.owner)
			if write {
				if h.dropPrivate(oc, lineAddr) {
					l3l.dirty = true
				}
				l3l.sharers &^= bit(oc)
				h.ctr.invalidations.Inc()
			} else {
				// Downgrade owner to Shared; dirty data merges to L3.
				if ol := h.l1[oc].lookup(lineAddr); ol != nil {
					if ol.dirty {
						l3l.dirty = true
						ol.dirty = false
					}
					ol.st = stShared
				}
				if ol := h.l2[oc].lookup(lineAddr); ol != nil {
					if ol.dirty {
						l3l.dirty = true
						ol.dirty = false
					}
					ol.st = stShared
				}
			}
			l3l.owner = -1
		}
		var st state
		if write {
			h.invalidateSharers(l3l, lineAddr, core)
			l3l.owner = int8(core)
			l3l.sharers = bit(core)
			st = stModified
		} else {
			if l3l.sharers&^bit(core) != 0 {
				st = stShared
				l3l.owner = -1
			} else {
				st = stExclusive
				l3l.owner = int8(core)
			}
			l3l.sharers |= bit(core)
		}
		h.fillPrivate(core, l1set, l2set, lineAddr, st)
		res.Level = LevelL3
		res.WalkLatency = res.Latency
		return res
	}
	h.ctr.l3Miss.Inc()

	// Memory fetch.
	res.WalkLatency = res.Latency
	h.ctr.memReads.Inc()
	memLat := h.backend.ReadLine(lineAddr, now+res.Latency)
	res.Latency += memLat
	if h.cfg.Prefetch.Depth > 0 {
		// The prefetcher fires when the miss is detected (end of the tag
		// walk), concurrently with the demand fetch — not serialized
		// behind it. Issuing at now+res.Latency here would idle the
		// prefetcher for a full memory round-trip per trigger.
		h.prefetch(lineAddr, now+res.WalkLatency)
	}

	l3l, ev := h.l3.installIn(l3set, lineAddr, stInvalid, false)
	h.evictL3(ev, now+res.Latency)
	l3l.sharers = bit(core)
	l3l.owner = int8(core)
	st := stExclusive
	if write {
		st = stModified
	}
	h.fillPrivate(core, l1set, l2set, lineAddr, st)
	res.Level = LevelMem
	return res
}

// Probe reports whether lineAddr is present anywhere visible to core (its
// own L1/L2 or the shared, inclusive L3) without changing any state. The
// U-PEI configuration uses this as its ideal locality monitor.
func (h *Hierarchy) Probe(core int, addr memmap.Addr) (Level, bool) {
	lineAddr := memmap.LineAddr(addr)
	if h.l1[core].lookup(lineAddr) != nil {
		return LevelL1, true
	}
	if h.l2[core].lookup(lineAddr) != nil {
		return LevelL2, true
	}
	if h.l3.lookup(lineAddr) != nil {
		return LevelL3, true
	}
	return LevelMem, false
}

// slotName locates slot of a for audit messages; core < 0 names the
// shared L3.
func (a *array) slotName(level string, core, slot int) string {
	if core < 0 {
		return fmt.Sprintf("%s set %d way %d", level, slot/a.ways, slot%a.ways)
	}
	return fmt.Sprintf("%s core %d set %d way %d", level, core, slot/a.ways, slot%a.ways)
}

// checkRows validates the array's tag and stamp rows against each other
// and against the payload row. A slot is invalid exactly when its tag row
// holds noTag and its stamp is 0, and an invalid slot carries the empty
// payload. A valid slot's tag is a line address of the set it sits in,
// appears once in that set, and carries a stamp in [1, useCtr]. Victim
// choice (first argmin of the stamp row) is "first invalid slot, else
// LRU" only while these hold.
func (a *array) checkRows(level string, core int) error {
	for i, tag := range a.tags {
		stamp := a.stamps[i]
		if tag == noTag {
			if stamp != 0 {
				return fmt.Errorf("%s: tag row marks the slot invalid but its stamp is %d",
					a.slotName(level, core, i), stamp)
			}
			if l := a.lines[i]; l != emptyLine {
				return fmt.Errorf("%s: invalid slot retains state (st=%v dirty=%v sharers=%#x owner=%d prefetched=%v)",
					a.slotName(level, core, i), l.st, l.dirty, l.sharers, l.owner, l.prefetched)
			}
			continue
		}
		if stamp == 0 || stamp > a.useCtr {
			return fmt.Errorf("%s: tag row holds %#x but its stamp %d is outside [1, %d]",
				a.slotName(level, core, i), tag, stamp, a.useCtr)
		}
		set := i - i%a.ways
		if memmap.LineAddr(tag) != tag || a.setOf(tag) != set {
			return fmt.Errorf("%s: tag row holds %#x, not a line address of this set",
				a.slotName(level, core, i), tag)
		}
		for j := set; j < i; j++ {
			if a.tags[j] == tag {
				return fmt.Errorf("%s: tag row holds %#x, already held by way %d",
					a.slotName(level, core, i), tag, j-set)
			}
		}
	}
	return nil
}

// checkPrivateLine validates the per-line invariants of a valid private
// (L1 or L2) slot: it carries a real MESI state, the dirty bit implies
// Modified (in particular no dirty Shared line can exist — a Shared line
// lost write permission, so dirty data in it would be lost silently on
// eviction), and the directory fields stay untouched, since only the L3
// array holds directory state.
func checkPrivateLine(level string, core int, tag memmap.Addr, l line) error {
	if l.st == stInvalid {
		return fmt.Errorf("%s line %#x of core %d is valid but in state I", level, tag, core)
	}
	if l.dirty && l.st != stModified {
		return fmt.Errorf("%s line %#x of core %d is dirty in state %v (dirty implies M)",
			level, tag, core, l.st)
	}
	if l.sharers != 0 || l.owner != -1 || l.prefetched {
		return fmt.Errorf("%s line %#x of core %d carries L3-only state (sharers=%#x owner=%d prefetched=%v)",
			level, tag, core, l.sharers, l.owner, l.prefetched)
	}
	return nil
}

// CheckInvariants validates MESI/inclusion/directory invariants across
// the whole hierarchy, after checking every array's tag and stamp rows
// (checkRows). The internal/check sanitizer registers it as the "cache"
// auditor; tests also call it directly after randomized access sequences.
// It is read-only.
func (h *Hierarchy) CheckInvariants() error {
	for c := 0; c < h.cfg.NumCores; c++ {
		if err := h.l1[c].checkRows("L1", c); err != nil {
			return err
		}
		if err := h.l2[c].checkRows("L2", c); err != nil {
			return err
		}
	}
	if err := h.l3.checkRows("L3", -1); err != nil {
		return err
	}
	// Check every valid private line's state, inclusion, and the
	// directory view.
	for c := 0; c < h.cfg.NumCores; c++ {
		l1 := h.l1[c]
		for i, tag := range l1.tags {
			if tag == noTag {
				continue
			}
			l := l1.lines[i]
			if err := checkPrivateLine("L1", c, tag, l); err != nil {
				return err
			}
			l2l := h.l2[c].lookup(tag)
			if l2l == nil {
				return fmt.Errorf("L1 line %#x of core %d not in L2 (inclusion)", tag, c)
			}
			if l.st == stModified && l2l.st != stModified {
				return fmt.Errorf("L1 line %#x of core %d is M but L2 copy is %v", tag, c, l2l.st)
			}
		}
		l2 := h.l2[c]
		for i, tag := range l2.tags {
			if tag == noTag {
				continue
			}
			l := l2.lines[i]
			if err := checkPrivateLine("L2", c, tag, l); err != nil {
				return err
			}
			l3l := h.l3.lookup(tag)
			if l3l == nil {
				return fmt.Errorf("L2 line %#x of core %d not in L3 (inclusion)", tag, c)
			}
			if l3l.sharers&bit(c) == 0 {
				return fmt.Errorf("L2 line %#x of core %d missing from directory", tag, c)
			}
			if (l.st == stModified || l.st == stExclusive) && l3l.sharers&^bit(c) != 0 {
				return fmt.Errorf("line %#x is %v in core %d but has other sharers %#x",
					tag, l.st, c, l3l.sharers&^bit(c))
			}
		}
	}
	// Directory entries must be backed by actual private copies.
	for i, tag := range h.l3.tags {
		if tag == noTag {
			continue
		}
		l := h.l3.lines[i]
		if l.sharers>>uint(h.cfg.NumCores) != 0 {
			return fmt.Errorf("directory entry %#x names nonexistent cores (sharers=%#x, %d cores)",
				tag, l.sharers, h.cfg.NumCores)
		}
		for c := 0; c < h.cfg.NumCores; c++ {
			if l.sharers&bit(c) != 0 && h.l2[c].lookup(tag) == nil {
				return fmt.Errorf("directory says core %d shares %#x but L2 has no copy", c, tag)
			}
		}
		if l.owner >= 0 && l.sharers&bit(int(l.owner)) == 0 {
			return fmt.Errorf("owner %d of %#x is not a sharer", l.owner, tag)
		}
	}
	return nil
}

// CorruptDirectoryForTest deliberately flips one directory sharer bit on
// a valid L3 line so fault-injection tests can prove CheckInvariants
// catches directory drift. It reports whether a target line existed.
// Test-only; never call from simulation code.
func (h *Hierarchy) CorruptDirectoryForTest() bool {
	for i, tag := range h.l3.tags {
		if tag == noTag {
			continue
		}
		l := &h.l3.lines[i]
		for c := 0; c < h.cfg.NumCores; c++ {
			if l.sharers&bit(c) == 0 {
				l.sharers |= bit(c) // phantom sharer with no private copy
				return true
			}
		}
		l.sharers &^= bit(0) // every core shares: drop one instead
		return true
	}
	return false
}
