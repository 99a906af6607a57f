// Package pou implements the PIM Offloading Unit of Section III-B: the
// per-core datapath decision that routes each memory instruction either
// through the cache hierarchy, around it as an uncacheable (UC) access, or
// to the HMC as a PIM atomic command.
//
// GraphPIM adds no new host instructions: the POU keys entirely off (a)
// whether the instruction carries an atomic ("lock") semantics and (b)
// whether its address falls inside the PIM memory region (PMR).
package pou

import (
	"graphpim/internal/hmcatomic"
	"graphpim/internal/memmap"
	"graphpim/internal/trace"
)

// Path is the datapath chosen for one memory instruction.
type Path uint8

// Datapaths.
const (
	// PathCache sends the access through the normal cache hierarchy.
	PathCache Path = iota
	// PathHostAtomic executes a host atomic through the cache hierarchy
	// with RFO, cache-line locking, write-buffer drain, and pipeline
	// freeze.
	PathHostAtomic
	// PathUC bypasses the cache hierarchy with an uncacheable sub-line
	// access (non-atomic instructions touching the PMR).
	PathUC
	// PathPIM offloads the atomic to the HMC as a PIM command.
	PathPIM
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case PathCache:
		return "cache"
	case PathHostAtomic:
		return "host-atomic"
	case PathUC:
		return "uc"
	case PathPIM:
		return "pim"
	}
	return "path(?)"
}

// Config selects the offloading behaviour of a machine configuration.
type Config struct {
	// OffloadAtomics routes PMR atomics to the HMC (GraphPIM and U-PEI).
	OffloadAtomics bool
	// UCBypass routes non-atomic PMR accesses around the caches
	// (GraphPIM's cache policy; U-PEI keeps them cacheable).
	UCBypass bool
	// HostOnCacheHit executes an offloading candidate host-side when its
	// line is present in the cache (U-PEI's ideal locality monitor).
	HostOnCacheHit bool
	// ExtendedAtomics enables the paper's FP add/sub extension, allowing
	// AtomicFPAdd to translate to a PIM command.
	ExtendedAtomics bool
	// PMRActive marks whether the framework actually placed the graph
	// property into the PMR for this run. The framework only does so
	// when every property atomic of the workload maps to a PIM command
	// (Table III applicability); otherwise the PMR segment behaves as
	// ordinary cacheable memory.
	PMRActive bool
}

// Baseline returns the conventional-architecture configuration.
func Baseline() Config { return Config{} }

// GraphPIM returns the paper's proposed configuration. extended enables
// the FP-atomic extension.
func GraphPIM(extended bool) Config {
	return Config{
		OffloadAtomics:  true,
		UCBypass:        true,
		ExtendedAtomics: extended,
		PMRActive:       true,
	}
}

// UPEI returns the idealized PEI upper-bound configuration. extended
// enables the FP-atomic extension.
func UPEI(extended bool) Config {
	return Config{
		OffloadAtomics:  true,
		HostOnCacheHit:  true,
		ExtendedAtomics: extended,
		PMRActive:       true,
	}
}

// Caps is the memory backend's atomic-offload capability, consulted
// during routing. It is declared here (rather than importing the mem
// package) so the POU depends only on the negotiation, not on any
// backend; mem.Backend satisfies it structurally.
type Caps interface {
	CanOffload(op hmcatomic.Op) bool
}

// Substrate is what capability negotiation (and the placement tuner)
// learns about the memory backend before the machine assembles: the
// per-command capability interface and whether the general-purpose
// bundle tier exists. The machine builds one from the backend it
// constructed; tests build them by hand.
type Substrate struct {
	// Caps answers per-command capability; nil means all-capable.
	Caps Caps
	// Bundle reports a general-purpose near-memory core tier
	// (mem.BundleBackend with CanOffloadBundle true).
	Bundle bool
}

// CanOffloadBasic reports whether the substrate has any fixed-function
// PIM units at all — the wholesale-negotiation probe. A substrate that
// cannot execute even the basic integer atomic near memory has none.
func (s Substrate) CanOffloadBasic() bool {
	return s.Caps == nil || s.Caps.CanOffload(hmcatomic.Add16)
}

// Negotiate resolves the POU configuration a machine runs with against
// its substrate. Machine assembly applies it to every configuration, in
// this order:
//
//  1. Wholesale degradation: a substrate without even the basic integer
//     atomic has no PIM units, so the whole offload policy — UC bypass
//     included — degrades to the conventional datapath. (Partial
//     capability, e.g. a missing FP unit, is negotiated per command
//     inside Route instead.)
//  2. Bundle-tier PMR activation: a substrate with general-purpose
//     near-memory cores executes any read-modify-write as a bundle, so
//     Table III applicability no longer gates PMR allocation.
func Negotiate(cfg Config, sub Substrate) Config {
	if cfg.OffloadAtomics && !sub.CanOffloadBasic() {
		cfg.OffloadAtomics = false
		cfg.UCBypass = false
		cfg.PMRActive = false
	}
	if sub.Bundle && cfg.OffloadAtomics && !cfg.PMRActive {
		cfg.PMRActive = true
	}
	return cfg
}

// BundleCaps is the optional second capability tier: a backend with
// general-purpose near-memory cores (UPMEM-style vault processors)
// accepts whole read-modify-write bundles for atomics that have no
// fixed-function PIM command. Route probes for it per command;
// mem.BundleBackend satisfies it structurally.
type BundleCaps interface {
	CanOffloadBundle() bool
}

// Unit is one core's PIM offloading unit.
type Unit struct {
	cfg   Config
	space *memmap.AddressSpace
	caps  Caps
}

// New returns a POU routing against the given address space, assuming a
// backend that can execute every PIM command (tests and standalone
// use). Machines assemble with NewWithCaps so routing respects the
// actual substrate.
func New(cfg Config, space *memmap.AddressSpace) *Unit {
	return &Unit{cfg: cfg, space: space}
}

// NewWithCaps returns a POU that negotiates offload capability with the
// memory backend: an atomic whose PIM command the backend cannot
// execute falls back to the host-atomic path. A nil caps means
// all-capable.
func NewWithCaps(cfg Config, space *memmap.AddressSpace, caps Caps) *Unit {
	return &Unit{cfg: cfg, space: space, caps: caps}
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// Decision is the routing outcome for one instruction.
type Decision struct {
	Path Path
	// Op is the HMC command used when Path == PathPIM.
	Op hmcatomic.Op
	// Candidate marks offloading candidates (atomics on PMR property
	// data), tracked for the Fig. 10 cache-miss-rate analysis in every
	// configuration including Baseline.
	Candidate bool
	// Bundle marks a PathPIM decision routed through the general-purpose
	// bundle tier (BundleCaps) rather than a fixed-function command; Op
	// is unset.
	Bundle bool
	// Fallback marks a PathHostAtomic decision that would have offloaded
	// but was vetoed by capability negotiation — the command maps to a
	// PIM op (kept in Op for attribution) and the substrate declined it.
	// The machine counts these so degradation is visible in stats
	// instead of silently simulating host atomics.
	Fallback bool
}

// inActivePMR reports whether addr is governed by PMR semantics this run.
func (u *Unit) inActivePMR(addr memmap.Addr) bool {
	return u.cfg.PMRActive && u.space.InPMR(addr)
}

// Route decides the datapath for one instruction record.
func (u *Unit) Route(in trace.Instr) Decision {
	switch in.Kind {
	case trace.KindLoad, trace.KindStore:
		if u.cfg.UCBypass && u.inActivePMR(in.Addr) {
			return Decision{Path: PathUC}
		}
		return Decision{Path: PathCache}
	case trace.KindAtomic:
		cand := in.Region == memmap.RegionProperty
		if !u.cfg.OffloadAtomics || !u.inActivePMR(in.Addr) {
			return Decision{Path: PathHostAtomic, Candidate: cand}
		}
		op, ok := in.Atomic.PIMOp(u.cfg.ExtendedAtomics)
		if !ok {
			// Unmappable atomic inside an active PMR. A substrate with
			// general-purpose near-memory cores still offloads it as a
			// whole read-modify-write bundle (the second capability
			// tier); otherwise the framework avoids this by construction
			// (it only activates the PMR for applicable workloads) and
			// the access falls back to the host path, which models the
			// bus-lock degradation the paper warns about via the UC
			// access cost in the machine layer.
			if bc, isBundle := u.caps.(BundleCaps); isBundle && bc.CanOffloadBundle() {
				return Decision{Path: PathPIM, Candidate: cand, Bundle: true}
			}
			return Decision{Path: PathHostAtomic, Candidate: cand}
		}
		if u.caps != nil && !u.caps.CanOffload(op) {
			// The command maps, but the substrate cannot execute it
			// near memory (no PIM units at all, or no FP unit for the
			// extension commands): execute host-side, marked as a
			// negotiation fallback so the run's stats expose the
			// degradation.
			return Decision{Path: PathHostAtomic, Op: op, Candidate: cand, Fallback: true}
		}
		return Decision{Path: PathPIM, Op: op, Candidate: cand}
	default:
		return Decision{Path: PathCache}
	}
}
