// Parser and validation tests: strict unknown-field rejection, quantity
// forms, canonical round-trip, CSV resolution, and the
// malformed-input-never-panics table.
package spec_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"respeed/internal/platform"
	"respeed/internal/spec"
)

// minimal is the smallest valid spec document.
const minimal = `{
  "version": 1,
  "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8},
  "total_work": 500,
  "faults": {"silent": {"dist": "exponential", "rate": 2e-3}}
}`

func TestParseMinimal(t *testing.T) {
	s, err := spec.Parse([]byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if s.Plan.W != 50 || s.TotalWork != 500 {
		t.Errorf("parsed spec fields wrong: %+v", s)
	}
	cfg, _ := platform.ByName("Hera/XScale")
	sc, err := s.Compile(spec.EnvFor(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Costs.LambdaS != 2e-3 || sc.Costs.LambdaF != 0 {
		t.Errorf("exponential faults must lower onto Costs: %+v", sc.Costs)
	}
	if sc.Renewal != nil || sc.Nodes != nil {
		t.Error("plain exponential spec must use the legacy aggregate path")
	}
}

func TestParseUnknownFieldNamesOffender(t *testing.T) {
	cases := []string{
		strings.Replace(minimal, `"total_work"`, `"totalwork"`, 1),
		strings.Replace(minimal, `"rate": 2e-3`, `"rate": 2e-3, "ratee": 1`, 1),
		strings.Replace(minimal, `"w": 50`, `"w": 50, "sigma3": 1`, 1),
	}
	for _, src := range cases {
		_, err := spec.Parse([]byte(src))
		if err == nil {
			t.Errorf("unknown field accepted: %s", src)
			continue
		}
		if !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("error must name the unknown field, got: %v", err)
		}
	}
}

func TestParseTrailingData(t *testing.T) {
	if _, err := spec.Parse([]byte(minimal + `{"version":1}`)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing document accepted: %v", err)
	}
}

func TestQuantityForms(t *testing.T) {
	cfg, _ := platform.ByName("Hera/XScale")
	env := spec.EnvFor(cfg)
	src := strings.Replace(minimal, `"faults"`, `"costs": {"c": 120, "v": {"of": "V", "scale": 0.5}, "r": {"of": "C"}}, "faults"`, 1)
	s, err := spec.Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Compile(env)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Costs.C != 120 {
		t.Errorf("absolute quantity: C = %g, want 120", sc.Costs.C)
	}
	if want := env.Params.V * 0.5; sc.Costs.V != want {
		t.Errorf("relative quantity: V = %g, want %g", sc.Costs.V, want)
	}
	if sc.Costs.R != env.Params.C {
		t.Errorf("scale-free relative quantity: R = %g, want %g", sc.Costs.R, env.Params.C)
	}
}

func TestQuantityRejects(t *testing.T) {
	cases := []string{
		`{"of": "X"}`,              // unknown base
		`{"off": "C"}`,             // unknown field
		`{"of": "C", "scale": -1}`, // negative scale
		`-5`,                       // negative absolute
		`"C"`,                      // wrong JSON type
	}
	for _, q := range cases {
		src := strings.Replace(minimal, `"faults"`, `"costs": {"c": `+q+`}, "faults"`, 1)
		if _, err := spec.Parse([]byte(src)); err == nil {
			t.Errorf("quantity %s accepted", q)
		}
	}
}

// TestCanonicalRoundTrip: for every built-in and example spec,
// Parse(Canonical(s)) must re-canonicalize to identical bytes and an
// identical hash.
func TestCanonicalRoundTrip(t *testing.T) {
	var specs []spec.ScenarioSpec
	for _, name := range spec.Names() {
		s, _ := spec.ByName(name)
		specs = append(specs, s)
	}
	paths, err := filepath.Glob("../../examples/spec/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	for _, p := range paths {
		s, err := spec.ParseFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		specs = append(specs, s)
	}
	for _, s := range specs {
		c1, err := spec.Canonical(s)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := spec.Parse(c1)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, c1)
		}
		c2, err := spec.Canonical(s2)
		if err != nil {
			t.Fatal(err)
		}
		if string(c1) != string(c2) {
			t.Errorf("canonical form unstable:\n 1st %s\n 2nd %s", c1, c2)
		}
		h1, _ := spec.Hash(s)
		h2, _ := spec.Hash(s2)
		if h1 != h2 || len(h1) != 16 {
			t.Errorf("hash unstable or malformed: %q vs %q", h1, h2)
		}
	}
}

// TestMalformedNeverErrorsOut ensures hostile inputs produce errors,
// not panics (the fuzz target explores this space further).
func TestMalformedNeverPanics(t *testing.T) {
	cases := []string{
		``, `null`, `[]`, `"x"`, `{`, `{}`,
		`{"version": 99}`,
		`{"version": 1}`,
		`{"version": 1, "plan": {"w": -1}}`,
		`{"version": 1, "plan": {"w": 1e999}}`,
		`{"version": 1, "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8}, "total_work": 500, "faults": {}}`,
		`{"version": 1, "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8}, "total_work": 500,
		  "faults": {"silent": {"dist": "weibull", "rate": 1}}}`,
		`{"version": 1, "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8}, "total_work": 500,
		  "faults": {"silent": {"dist": "trace", "times": [5, 1]}}}`,
		`{"version": 1, "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8}, "total_work": 500,
		  "faults": {"silent": {"dist": "trace", "csv": "x.csv"}}}`,
		`{"version": 1, "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8}, "total_work": 500,
		  "faults": {"silent": {"dist": "trace", "times": [1]}, "nodes": 2}}`,
		`{"version": 1, "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8}, "total_work": 500,
		  "faults": {"silent": {"dist": "exponential", "rate": 1e-3},
		             "correlation": {"burst": {"dist": "exponential", "rate": 1e-3}, "spread": 0.5}}}`,
		`{"version": 1, "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8}, "total_work": 500,
		  "workload": {"kind": "heat", "size": 1, "alpha": 0.2},
		  "faults": {"silent": {"dist": "exponential", "rate": 1e-3}}}`,
		`{"version": 1, "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8}, "total_work": 501,
		  "faults": {"silent": {"dist": "exponential", "rate": 1e-3}},
		  "checkpoint": {"tier": "two-level", "mem_c": 1, "disk_c": 2, "disk_r": 3, "every": 1}}`,
		`{"version": 1, "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8}, "total_work": 500,
		  "faults": {"silent": {"dist": "exponential", "rate": 1e-3}},
		  "verification": {"mode": "partial", "segments": 1, "coverage": 0.5, "cost": 1}}`,
		`{"version": 1, "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8}, "total_work": 500,
		  "faults": {"silent": {"dist": "exponential", "rate": 1e-3}},
		  "verification": {"mode": "none", "segments": 4}}`,
	}
	for _, src := range cases {
		if _, err := spec.Parse([]byte(src)); err == nil {
			t.Errorf("malformed spec accepted: %s", src)
		}
	}
}

func TestParseFileResolvesCSV(t *testing.T) {
	dir := t.TempDir()
	csv := "time_s,kind\n100,silent\n250,failstop\n400,silent\n"
	if err := os.WriteFile(filepath.Join(dir, "log.csv"), []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := `{
	  "version": 1,
	  "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8},
	  "total_work": 500,
	  "faults": {
	    "silent": {"dist": "trace", "csv": "log.csv"},
	    "failstop": {"dist": "trace", "csv": "log.csv"}
	  }
	}`
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := spec.ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Faults.Silent.CSV != "" || s.Faults.FailStop.CSV != "" {
		t.Error("csv references must be cleared after resolution")
	}
	if len(s.Faults.Silent.Times) != 2 || len(s.Faults.FailStop.Times) != 1 {
		t.Errorf("resolved channels wrong: silent %v, failstop %v",
			s.Faults.Silent.Times, s.Faults.FailStop.Times)
	}
	// The hash covers the inlined arrivals, so two specs referencing
	// different logs can never collide onto one cache entry.
	h1, _ := spec.Hash(s)
	s.Faults.Silent.Times[0] += 1
	h2, _ := spec.Hash(s)
	if h1 == h2 {
		t.Error("hash must depend on the resolved arrival times")
	}
}

func TestParseFileRejectsEscapingCSV(t *testing.T) {
	dir := t.TempDir()
	for _, ref := range []string{"../other.csv", "/etc/passwd"} {
		doc := strings.Replace(`{
		  "version": 1,
		  "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8},
		  "total_work": 500,
		  "faults": {"silent": {"dist": "trace", "csv": "REF"}}
		}`, "REF", ref, 1)
		path := filepath.Join(dir, "spec.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := spec.ParseFile(path); err == nil ||
			!strings.Contains(err.Error(), "spec directory") {
			t.Errorf("csv ref %q: want containment error, got %v", ref, err)
		}
	}
}

// TestSpecWorkloadKinds compiles one spec per workload kind and runs it
// once, covering every constructor the compile path can reach.
func TestSpecWorkloadKinds(t *testing.T) {
	cfg, _ := platform.ByName("Hera/XScale")
	env := spec.EnvFor(cfg)
	kinds := []string{
		`{"kind": "stream", "seed": 11, "size": 32}`,
		`{"kind": "heat", "size": 16, "alpha": 0.25}`,
		`{"kind": "heat2d", "size": 8, "alpha": 0.2}`,
		`{"kind": "matvec", "size": 12}`,
	}
	for _, k := range kinds {
		src := strings.Replace(minimal, `"faults"`, `"workload": `+k+`, "faults"`, 1)
		s, err := spec.Parse([]byte(src))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		sc, err := s.Compile(env)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if _, err := sc.Run(3); err != nil {
			t.Errorf("%s: run: %v", k, err)
		}
	}
}
