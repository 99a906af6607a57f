// Package cache models the host cache hierarchy of Table IV: 32KB private
// L1 data caches, 256KB private inclusive L2 caches, and a 16MB shared
// inclusive L3, with 64-byte lines kept coherent by a MESI protocol backed
// by an in-L3 sharer directory.
//
// The hierarchy is a "latency oracle": an access updates tag/LRU/coherence
// state immediately and returns the latency the requesting core observes.
// Off-chip traffic (fills and writebacks) is reported to a Backend, which
// the machine model wires to the HMC so that bank occupancy and link FLIT
// accounting stay accurate.
package cache

import (
	"fmt"

	"graphpim/internal/memmap"
)

// MESI line states for private caches.
type state uint8

const (
	stInvalid state = iota
	stShared
	stExclusive
	stModified
)

func (s state) String() string {
	switch s {
	case stInvalid:
		return "I"
	case stShared:
		return "S"
	case stExclusive:
		return "E"
	case stModified:
		return "M"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// line is one cache slot's payload: the coherence and directory state
// beside the tag and LRU rows of its array. The simulator stores no data
// bytes; functional values live in the workload layer.
type line struct {
	st    state
	dirty bool
	// prefetched marks L3 lines brought in by the prefetcher and not
	// yet touched by a demand access (accuracy accounting).
	prefetched bool
	owner      int8 // L3 directory: core holding the line in M/E state, -1 if none
	// sharers is the L3 directory bitmask of cores with the line in a
	// private cache.
	sharers uint32
}

// emptyLine is the payload of an invalid slot.
var emptyLine = line{owner: -1}

// noTag marks an invalid slot in the tag row. It is not line-aligned, so
// no probe for a line address ever matches it.
const noTag = ^memmap.Addr(0)

// victim is the metadata of a slot an install replaced. tag is noTag
// when the slot was empty.
type victim struct {
	tag memmap.Addr
	line
}

// valid reports whether the replaced slot held a line.
func (v victim) valid() bool { return v.tag != noTag }

// array is one set-associative cache structure, stored as flat set-major
// rows: slot set*ways+w is way w of set set. The tag row holds each
// slot's line address (noTag when invalid) and the stamp row its LRU
// stamp (0 exactly when invalid), so a probe scans only tags and victim
// choice only stamps, without touching the payload row.
type array struct {
	tags    []memmap.Addr
	stamps  []uint64
	lines   []line
	ways    int
	setMask uint64
	useCtr  uint64
}

func newArray(sizeBytes, ways, lineSize int) *array {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	numLines := sizeBytes / lineSize
	numSets := numLines / ways
	if numSets == 0 {
		numSets = 1
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", numSets))
	}
	a := &array{
		tags:    make([]memmap.Addr, numSets*ways),
		stamps:  make([]uint64, numSets*ways),
		lines:   make([]line, numSets*ways),
		ways:    ways,
		setMask: uint64(numSets - 1),
	}
	for i := range a.tags {
		a.tags[i] = noTag
		a.lines[i] = emptyLine
	}
	return a
}

// setOf returns the index of the first slot of lineAddr's set.
func (a *array) setOf(lineAddr memmap.Addr) int {
	return int((uint64(lineAddr)>>6)&a.setMask) * a.ways
}

// probe resolves lineAddr's set once and returns the index of its first
// slot together with the slot holding lineAddr (-1 on a miss).
// Hierarchy.Access reuses the set index for victim choice and install,
// so one access walks each array's set index a single time.
func (a *array) probe(lineAddr memmap.Addr) (set, slot int) {
	set = a.setOf(lineAddr)
	for w, t := range a.tags[set : set+a.ways] {
		if t == lineAddr {
			return set, set + w
		}
	}
	return set, -1
}

// lookup returns the payload of the slot holding lineAddr, or nil.
func (a *array) lookup(lineAddr memmap.Addr) *line {
	if _, slot := a.probe(lineAddr); slot >= 0 {
		return &a.lines[slot]
	}
	return nil
}

// touch refreshes the LRU stamp of slot.
func (a *array) touch(slot int) {
	a.useCtr++
	a.stamps[slot] = a.useCtr
}

// victimIn returns the slot to replace in the set starting at set: the
// first argmin of the stamp row. Only invalid slots have stamp 0 and
// valid stamps are distinct, so this is the first invalid slot if one
// exists, otherwise the least recently used line.
func (a *array) victimIn(set int) int {
	stamps := a.stamps[set : set+a.ways]
	v, best := 0, stamps[0]
	for w, s := range stamps {
		if s < best {
			v, best = w, s
		}
	}
	return set + v
}

// installIn replaces the victim slot of the set starting at set with a
// fresh line for lineAddr, returning the installed payload and the
// evicted metadata.
func (a *array) installIn(set int, lineAddr memmap.Addr, st state, dirty bool) (l *line, evicted victim) {
	v := a.victimIn(set)
	evicted = victim{tag: a.tags[v], line: a.lines[v]}
	a.useCtr++
	a.tags[v] = lineAddr
	a.stamps[v] = a.useCtr
	a.lines[v] = line{st: st, dirty: dirty, owner: -1}
	return &a.lines[v], evicted
}

// invalidate drops lineAddr from the array, returning the old payload.
func (a *array) invalidate(lineAddr memmap.Addr) (old line, was bool) {
	if _, slot := a.probe(lineAddr); slot >= 0 {
		old, was = a.lines[slot], true
		a.tags[slot] = noTag
		a.stamps[slot] = 0
		a.lines[slot] = emptyLine
	}
	return old, was
}
