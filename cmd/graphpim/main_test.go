package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphpim"
	"graphpim/internal/harness"
	"graphpim/internal/obs"
)

func TestMakeEnv(t *testing.T) {
	e := makeEnv(true, 0, 0)
	if e.Vertices != 2048 {
		t.Fatalf("quick env vertices = %d", e.Vertices)
	}
	e = makeEnv(false, 0, 0)
	if e.Vertices != 16384 {
		t.Fatalf("default env vertices = %d", e.Vertices)
	}
	e = makeEnv(false, 4096, 99)
	if e.Vertices != 4096 || e.AppVertices != 4096 || e.Seed != 99 {
		t.Fatalf("overrides ignored: %+v", e)
	}
}

func testCLIEnv(workers int) *graphpim.Env {
	env := graphpim.QuickEnv()
	env.Vertices = 512
	env.AppVertices = 512
	env.SweepSizes = []int{512}
	env.Parallelism = workers
	env.Check = true
	return env
}

// TestRunExperimentsRegistryOrder checks the run command's output
// contract: experiment tables print in the requested (registry) order and
// are byte-identical at any -j, even though the parallel engine completes
// simulation cells out of order.
func TestRunExperimentsRegistryOrder(t *testing.T) {
	exps := []graphpim.Experiment{}
	// A mix of static tables and a simulating experiment, deliberately
	// not in registry order.
	for _, id := range []string{"ext-dependent-block", "table3-applicability", "table1-hmc-atomics"} {
		ex, err := graphpim.ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, ex)
	}

	render := func(workers int) string {
		var buf bytes.Buffer
		if err := runExperiments(&buf, testCLIEnv(workers), exps, "text", nil); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)

	if serial != parallel {
		t.Fatalf("output differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
	}
	var positions []int
	for _, ex := range exps {
		pos := strings.Index(parallel, "# "+ex.ID+" ")
		if pos < 0 {
			t.Fatalf("experiment %s missing from output", ex.ID)
		}
		positions = append(positions, pos)
	}
	if !sort.IntsAreSorted(positions) {
		t.Fatalf("experiments printed out of requested order: positions %v\n%s", positions, parallel)
	}
}

// TestReplayTruncatedManifestExitsTwo: a corrupt replay directory is an
// input error — the CLI must exit 2 with a clear message, not dump a
// stack trace or pretend partial success.
func TestReplayTruncatedManifestExitsTwo(t *testing.T) {
	dir := t.TempDir()
	// A manifest cut off mid-object, as a crashed `run -out` would leave.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"),
		[]byte(`{"tool":"graphpim","env":{"vertices":16384,`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"replay", "-in", dir, "all"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "replay:") || !strings.Contains(msg, dir) {
		t.Fatalf("error message does not identify the corrupt directory: %q", msg)
	}
	if strings.Contains(msg, "goroutine") {
		t.Fatalf("stack trace leaked to stderr:\n%s", msg)
	}
}

func TestReplayMissingDirExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"replay", "-in", filepath.Join(t.TempDir(), "nope")}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
	}
}

// TestWorkloadUnknownNameExitsTwo: an unknown workload name is a usage
// error — exit 2 with every valid name listed in registry order, so the
// user never has to guess the spelling.
func TestWorkloadUnknownNameExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"workload", "-quick", "Bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"Bogus"`) {
		t.Fatalf("error does not name the bad input: %q", msg)
	}
	var names []string
	for _, w := range graphpim.RegistryWorkloads() {
		names = append(names, w.Info().Name)
	}
	if want := strings.Join(names, ", "); !strings.Contains(msg, want) {
		t.Fatalf("error does not list valid names in registry order:\n%s\nwant list: %s", msg, want)
	}
}

// TestPolicyFlagValidation: -policy rejects unknown values with a usage
// error on both subcommands.
func TestPolicyFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-quick", "-policy", "bogus", "ext-autotune"},
		{"workload", "-quick", "-policy", "bogus", "BFS"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit code = %d, want 2; stderr:\n%s", args, code, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, `"bogus"`) || !strings.Contains(msg, "auto, host, pim, upei") {
			t.Fatalf("%v: error does not list valid policies: %q", args, msg)
		}
	}
}

// TestCheckFlagOutputIdentity is the CLI half of the sanitizer's
// zero-perturbation contract: `run -check` must produce byte-identical
// stdout to a plain run, at any worker count.
func TestCheckFlagOutputIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	render := func(extra ...string) string {
		args := append([]string{"run", "-quick", "-q", "-vertices", "512"}, extra...)
		args = append(args, "ext-dependent-block")
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run %v exited %d:\n%s", args, code, stderr.String())
		}
		return stdout.String()
	}
	plain := render("-j", "1")
	checked := render("-check", "-j", "1")
	checkedParallel := render("-check", "-j", "8")
	if checked != plain {
		t.Fatalf("-check changed output:\n--- plain ---\n%s\n--- check ---\n%s", plain, checked)
	}
	if checkedParallel != plain {
		t.Fatalf("-check -j 8 changed output:\n--- plain ---\n%s\n--- check -j8 ---\n%s", plain, checkedParallel)
	}
}

// legacyManifest is a run manifest in the shape older builds wrote: its
// flags and env carry a scheduler knob ("shards") and a trace-pipeline
// switch ("stream") that no longer exist.
const legacyManifest = `{
  "tool": "graphpim",
  "version": "0.2.0",
  "go_version": "go1.24.0",
  "format": 1,
  "flags": {"csv": "false", "j": "1", "quick": "true", "shards": "4", "stream": "true"},
  "env": {
    "vertices": 2048,
    "seed": 7,
    "threads": 16,
    "scaled_caches": true,
    "sweep_sizes": [512, 2048],
    "app_vertices": 2048,
    "parallelism": 1,
    "shards": 4,
    "stream": true,
    "num_cpu": 2,
    "gomaxprocs": 2
  },
  "experiments": [],
  "cell_count": 0,
  "wall_ns": 1
}
`

// TestLegacyManifestReplays guards recorded run directories written by
// older builds: a manifest whose env and flags carry a retired key must
// still load, and must rebuild exactly the Env the same manifest
// without that key does.
func TestLegacyManifestReplays(t *testing.T) {
	load := func(text string) obs.Manifest {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, obs.ManifestFile), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := obs.LoadManifest(dir)
		if err != nil {
			t.Fatalf("manifest does not load: %v", err)
		}
		return m
	}
	legacy := load(legacyManifest)
	current := load(strings.NewReplacer(`"shards": 4,`, "", `, "shards": "4"`, "",
		`"stream": true,`, "", `, "stream": "true"`, "").Replace(legacyManifest))
	if current.Flags["shards"] != "" || legacy.Flags["shards"] != "4" ||
		current.Flags["stream"] != "" || legacy.Flags["stream"] != "true" {
		t.Fatalf("fixture edit failed: legacy flags %v, current flags %v", legacy.Flags, current.Flags)
	}
	if got, want := harness.EnvFromInfo(legacy.Env), harness.EnvFromInfo(current.Env); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy manifest rebuilt a different Env:\n got  %+v\n want %+v", got, want)
	}
}
