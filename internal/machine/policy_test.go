package machine

import (
	"reflect"
	"testing"

	"graphpim/internal/mem"
	"graphpim/internal/pou"
	"graphpim/internal/sim"
)

// TestPolicyStaticEquivalence is the machine-level half of the
// pou.Policy refactor's equivalence gate: a machine assembled from a
// concrete POU config (Policy nil) and one assembled from the
// equivalent Static policy instance must produce byte-identical Results
// — cycles, retired instructions, the full counter snapshot — across
// every configuration and every registered backend kind.
func TestPolicyStaticEquivalence(t *testing.T) {
	configs := []func() Config{
		Baseline,
		func() Config { return GraphPIM(false) },
		func() Config { return GraphPIM(true) },
		func() Config { return UPEI(false) },
		func() Config { return UPEI(true) },
	}
	for seed := uint64(0); seed < 3; seed++ {
		r := sim.NewRand(4100 + seed)
		sp, tr := randomTrace(r)
		for _, kind := range mem.Kinds() {
			for ci, mk := range configs {
				plain := mk()
				viaPolicy := mk()
				if kind != "hmc" {
					mc, ok := mem.DefaultConfig(kind)
					if !ok {
						t.Fatalf("kind %q not registered", kind)
					}
					plain.Mem = mc
					mc2, _ := mem.DefaultConfig(kind)
					viaPolicy.Mem = mc2
				}
				viaPolicy.Policy = pou.NewStatic(viaPolicy.Name, viaPolicy.POU)
				a := RunSource(plain, sp, tr)
				b := RunSource(viaPolicy, sp, tr)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d kind %s config %d: concrete config and Static policy diverge:\n%+v\n%+v",
						seed, kind, ci, a, b)
				}
			}
		}
	}
}

// TestPolicyOverridesPOUField checks that a non-nil Policy wins over the
// POU field: a machine whose POU says Baseline but whose Policy places
// GraphPIM must offload (and vice versa).
func TestPolicyOverridesPOUField(t *testing.T) {
	r := sim.NewRand(99)
	sp, tr := randomTrace(r)

	cfg := Baseline()
	cfg.Policy = pou.GraphPIMPolicy(true)
	res := RunSource(cfg, sp, tr)
	if res.Stats["mem.pim_atomics"] == 0 {
		t.Fatalf("Baseline POU + GraphPIM policy offloaded nothing: %+v", res.Stats)
	}

	inv := GraphPIM(true)
	inv.Policy = pou.BaselinePolicy()
	res = RunSource(inv, sp, tr)
	if res.Stats["mem.pim_atomics"] != 0 {
		t.Fatalf("GraphPIM POU + Baseline policy still offloaded %d atomics",
			res.Stats["mem.pim_atomics"])
	}
}
