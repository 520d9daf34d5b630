package spec_test

import (
	"testing"

	"respeed/internal/platform"
	"respeed/internal/spec"
)

// FuzzParse asserts the parser's safety contract: arbitrary input never
// panics, any input that parses has a stable canonical form —
// Canonical(Parse(x)) re-parses to the same canonical bytes and hash —
// and compiles against catalog configurations: the spec's checks admit
// nothing the engine's Scenario.Validate rejects.
func FuzzParse(f *testing.F) {
	var envs []spec.Env
	for _, name := range []string{"Hera/XScale", "Atlas/Crusoe"} {
		cfg, ok := platform.ByName(name)
		if !ok {
			f.Fatalf("unknown config %q", name)
		}
		envs = append(envs, spec.EnvFor(cfg))
	}
	f.Add([]byte(minimal))
	for _, name := range spec.Names() {
		s, _ := spec.ByName(name)
		if c, err := spec.Canonical(s); err == nil {
			f.Add(c)
		}
	}
	f.Add([]byte(`{"version":1,"plan":{"w":50,"sigma1":0.4,"sigma2":0.8},"total_work":500,` +
		`"faults":{"silent":{"dist":"weibull","shape":0.7,"scale":500},` +
		`"failstop":{"dist":"trace","times":[10,20,30]}}}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"costs":{"c":{"of":"C","scale":2}}}`))
	f.Add([]byte(`[{"version":1}]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := spec.Parse(data)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		c1, err := spec.Canonical(s)
		if err != nil {
			t.Fatalf("valid spec failed to canonicalize: %v", err)
		}
		s2, err := spec.Parse(c1)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, c1)
		}
		c2, err := spec.Canonical(s2)
		if err != nil {
			t.Fatal(err)
		}
		if string(c1) != string(c2) {
			t.Fatalf("canonical form unstable:\n 1st %s\n 2nd %s", c1, c2)
		}
		h1, _ := spec.Hash(s)
		h2, _ := spec.Hash(s2)
		if h1 != h2 {
			t.Fatalf("hash unstable: %q vs %q", h1, h2)
		}
		for _, env := range envs {
			if _, err := s.Compile(env); err != nil {
				t.Fatalf("parsed spec does not compile: %v\n%s", err, c1)
			}
		}
	})
}
