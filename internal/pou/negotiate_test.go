package pou

import (
	"testing"

	"graphpim/internal/hmcatomic"
)

// noPIMCaps models a substrate with no PIM units at all (ddr).
type noPIMCaps struct{}

func (noPIMCaps) CanOffload(hmcatomic.Op) bool { return false }

// allCaps models a fully-capable substrate (hmc).
type allCaps struct{}

func (allCaps) CanOffload(hmcatomic.Op) bool { return true }

// legacyNegotiate is a verbatim transcription of the capability
// negotiation machine.NewSource performed inline before Negotiate was
// extracted. Negotiate must match it on every input — that equality is
// the identity argument for the extraction (DESIGN.md §16).
func legacyNegotiate(cfg Config, sub Substrate) Config {
	if cfg.OffloadAtomics && sub.Caps != nil && !sub.Caps.CanOffload(hmcatomic.Add16) {
		cfg.OffloadAtomics = false
		cfg.UCBypass = false
		cfg.PMRActive = false
	}
	if sub.Bundle && cfg.OffloadAtomics && !cfg.PMRActive {
		cfg.PMRActive = true
	}
	return cfg
}

// TestNegotiateMatchesLegacyInline sweeps every POU config bit pattern
// against every substrate shape and requires Negotiate to agree with
// the pre-refactor inline logic exactly.
func TestNegotiateMatchesLegacyInline(t *testing.T) {
	subs := []Substrate{
		{Caps: allCaps{}},
		{Caps: noPIMCaps{}},
		{Caps: fpLessCaps{}},
		{Caps: allCaps{}, Bundle: true},
		{Caps: nil},
	}
	for bits := 0; bits < 32; bits++ {
		cfg := Config{
			OffloadAtomics:  bits&1 != 0,
			UCBypass:        bits&2 != 0,
			HostOnCacheHit:  bits&4 != 0,
			ExtendedAtomics: bits&8 != 0,
			PMRActive:       bits&16 != 0,
		}
		for si, sub := range subs {
			got := Negotiate(cfg, sub)
			want := legacyNegotiate(cfg, sub)
			if got != want {
				t.Fatalf("bits %05b substrate %d: Negotiate = %+v, legacy = %+v", bits, si, got, want)
			}
		}
	}
}

// TestStaticPolicyInstances checks the paper's three static
// configurations negotiate to themselves on a fully-capable substrate,
// degrade wholesale on a PIM-less one, and re-activate an inapplicable
// workload's PMR on a bundle-capable one.
func TestStaticPolicyInstances(t *testing.T) {
	full := Substrate{Caps: allCaps{}}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"Baseline", Baseline()},
		{"GraphPIM", GraphPIM(false)},
		{"GraphPIM+ext", GraphPIM(true)},
		{"U-PEI", UPEI(false)},
		{"U-PEI+ext", UPEI(true)},
	}
	for _, c := range cases {
		if got := Negotiate(c.cfg, full); got != c.cfg {
			t.Errorf("Negotiate(%s, full) = %+v, want %+v", c.name, got, c.cfg)
		}
	}
	// Wholesale degradation on a PIM-less substrate: the offload
	// configuration collapses to the conventional datapath.
	none := Substrate{Caps: noPIMCaps{}}
	if got := Negotiate(GraphPIM(true), none); got.OffloadAtomics || got.UCBypass || got.PMRActive {
		t.Errorf("GraphPIM on PIM-less substrate did not degrade: %+v", got)
	}
	// Bundle-tier activation: an inactive PMR (inapplicable workload)
	// re-activates on a bundle-capable substrate.
	cfg := GraphPIM(false)
	cfg.PMRActive = false
	if got := Negotiate(cfg, Substrate{Caps: allCaps{}, Bundle: true}); !got.PMRActive {
		t.Errorf("bundle substrate did not re-activate PMR: %+v", got)
	}
}
