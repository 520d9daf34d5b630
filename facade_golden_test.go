package respeed_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"respeed"
	"respeed/internal/stats"
)

// Façade golden: every simulation entry point of the public API is run
// at a fixed seed and its output is reduced to a canonical string of
// float bit patterns, counts and digests. Each case pins the FNV-64a
// hash of that string plus its headline makespan bits, so any change
// underneath the façade that reorders a float operation or an RNG draw
// fails here, and the failure message carries the full canonical form
// for diffing.

type goldenCase struct {
	name     string
	canon    string
	makespan float64
}

func bits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

func summaryCanon(s stats.Summary) string {
	return fmt.Sprintf("n=%d mean=%s sd=%s se=%s min=%s max=%s ci=%s",
		s.N, bits(s.Mean), bits(s.StdDev), bits(s.StdErr), bits(s.Min), bits(s.Max), bits(s.CI95))
}

func estimateCanon(e respeed.Estimate) string {
	return strings.Join([]string{
		"time{" + summaryCanon(e.Time) + "}",
		"energy{" + summaryCanon(e.Energy) + "}",
		"tpw{" + summaryCanon(e.TimePerWork) + "}",
		"epw{" + summaryCanon(e.EnergyPerWork) + "}",
		"attempts=" + bits(e.MeanAttempts),
		fmt.Sprintf("patterns=%d", e.Patterns),
	}, " ")
}

func execCanon(r respeed.ExecReport) string {
	b := r.EnergyBreakdown
	return fmt.Sprintf("makespan=%s energy=%s patterns=%d attempts=%d silent=%d/%d failstops=%d "+
		"progress=%s digest=%016x breakdown=%s,%s,%s,%s,%s,%s,%s partial=%d/%d ckpt=%+v",
		bits(r.Makespan), bits(r.Energy), r.Patterns, r.Attempts, r.SilentInjected, r.SilentDetected,
		r.FailStops, bits(r.FinalProgress), uint64(r.StateDigest),
		bits(b.Total), bits(b.Compute), bits(b.Verify), bits(b.Checkpoint), bits(b.Recovery), bits(b.Idle), bits(b.Elapsed),
		r.PartialChecks, r.PartialDetections, r.CkptStats)
}

func scenarioCanon(r respeed.ScenarioReport) string {
	b := r.EnergyBreakdown
	return fmt.Sprintf("makespan=%s energy=%s patterns=%d attempts=%d silent=%d/%d failstops=%d "+
		"progress=%s digest=%016x breakdown=%s,%s,%s,%s,%s,%s,%s partial=%d/%d ckpt=%+v "+
		"mem=%d/%d disk=%d/%d lost=%d pernode=%v",
		bits(r.Makespan), bits(r.Energy), r.Patterns, r.Attempts, r.SilentInjected, r.SilentDetected,
		r.FailStops, bits(r.FinalProgress), uint64(r.StateDigest),
		bits(b.Total), bits(b.Compute), bits(b.Verify), bits(b.Checkpoint), bits(b.Recovery), bits(b.Idle), bits(b.Elapsed),
		r.PartialChecks, r.PartialDetections, r.CkptStats,
		r.MemCommits, r.MemRecoveries, r.DiskCommits, r.DiskRecoveries, r.PatternsLost, r.PerNodeErrors)
}

func traceCanon(t *testing.T, rec *respeed.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf(" trace=%d:%016x", rec.Len(), h.Sum64())
}

func goldenSetup(t *testing.T) (respeed.Config, respeed.Params) {
	t.Helper()
	cfg, ok := respeed.ConfigByName("Hera/XScale")
	if !ok {
		t.Fatal("Hera/XScale not in catalog")
	}
	return cfg, respeed.ParamsFor(cfg)
}

func facadeGoldenCases(t *testing.T) []goldenCase {
	cfg, p := goldenSetup(t)
	boosted := cfg
	boosted.Platform.Lambda *= 100
	plan := respeed.Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	var out []goldenCase
	add := func(name, canon string, makespan float64) {
		out = append(out, goldenCase{name: name, canon: canon, makespan: makespan})
	}

	est, err := respeed.SimulatePatterns(boosted, plan, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	add("SimulatePatterns", estimateCanon(est), est.Time.Mean)

	est, err = respeed.SimulatePatternsParallel(boosted, plan, 3000, 43, 3)
	if err != nil {
		t.Fatal(err)
	}
	add("SimulatePatternsParallel", estimateCanon(est), est.Time.Mean)

	exec := func(lambdaS, lambdaF float64) respeed.ExecConfig {
		return respeed.ExecConfig{
			Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
			Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R, LambdaS: lambdaS, LambdaF: lambdaF},
			Model:     respeed.PowerModelFor(cfg),
			TotalWork: 500,
		}
	}

	traced := exec(3e-3, 1e-3)
	traced.Trace = respeed.NewTrace(0)
	rep, err := respeed.RunWorkload(traced, respeed.NewHeatWorkload(128, 0.25), 7)
	if err != nil {
		t.Fatal(err)
	}
	add("RunWorkload/traced", execCanon(rep)+traceCanon(t, traced.Trace), rep.Makespan)

	partial := exec(3e-3, 5e-4)
	partial.Partial = &respeed.PartialExec{Segments: 4, Coverage: 0.7, Cost: 2}
	partial.Trace = respeed.NewTrace(0)
	rep, err = respeed.RunWorkload(partial, respeed.NewStreamWorkload(3, 32), 8)
	if err != nil {
		t.Fatal(err)
	}
	add("RunWorkload/partial", execCanon(rep)+traceCanon(t, partial.Trace), rep.Makespan)

	blind := exec(2e-3, 0)
	blind.SkipVerification = true
	rep, err = respeed.RunWorkload(blind, respeed.NewHeatWorkload(128, 0.25), 9)
	if err != nil {
		t.Fatal(err)
	}
	add("RunWorkload/blind", execCanon(rep), rep.Makespan)

	tl, err := respeed.RunTwoLevel(respeed.TwoLevelConfig{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{V: p.V, R: p.R, LambdaS: 1.5e-3, LambdaF: 2e-3},
		MemC:      20,
		DiskC:     300,
		DiskR:     300,
		DiskEvery: 4,
		Model:     respeed.PowerModelFor(cfg),
		TotalWork: 1000,
	}, respeed.NewHeatWorkload(128, 0.25), 10)
	if err != nil {
		t.Fatal(err)
	}
	add("RunTwoLevel", fmt.Sprintf("makespan=%s energy=%s patterns=%d executions=%d mem=%d/%d disk=%d/%d "+
		"silent=%d failstops=%d lost=%d digest=%016x",
		bits(tl.Makespan), bits(tl.Energy), tl.Patterns, tl.Executions, tl.MemCommits, tl.MemRecoveries,
		tl.DiskCommits, tl.DiskRecoveries, tl.SilentErrors, tl.FailStops, tl.PatternsLost,
		uint64(tl.StateDigest)), tl.Makespan)

	base := respeed.Scenario{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R},
		Model:     respeed.PowerModelFor(cfg),
		TotalWork: 500,
	}
	mk := func() respeed.Workload { return respeed.NewStreamWorkload(7, 64) }
	cluster := base
	cluster.Nodes = respeed.UniformScenarioNodes(4, 2e-3, 5e-4)
	cluster.TwoLevel = &respeed.TwoLevelSpec{MemC: p.C / 4, DiskC: p.C, DiskR: 2 * p.R, Every: 3}
	sr, err := respeed.RunScenario(cluster, mk, 11)
	if err != nil {
		t.Fatal(err)
	}
	add("RunScenario/cluster-twolevel", scenarioCanon(sr), sr.Makespan)

	pf := base
	pf.Costs.LambdaS, pf.Costs.LambdaF = 2e-3, 5e-4
	pf.Partial = &respeed.PartialExec{Segments: 4, Coverage: 0.8, Cost: p.V / 4}
	sr, err = respeed.RunScenario(pf, mk, 12)
	if err != nil {
		t.Fatal(err)
	}
	add("RunScenario/partial-failstop", scenarioCanon(sr), sr.Makespan)

	agg := base
	agg.Costs.LambdaS, agg.Costs.LambdaF = 2e-3, 5e-4
	est, err = respeed.ReplicateScenario(agg, mk, 13, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	add("ReplicateScenario", estimateCanon(est), est.Time.Mean)
	return out
}

// facadeGolden maps each case to its pinned canonical-form hash and
// makespan bits.
var facadeGolden = map[string]struct{ hash, makespan string }{
	"SimulatePatterns":             {"1aeeab5b31676396", "40d1b195c28f5c21"},
	"SimulatePatternsParallel":     {"fffc6dfd4740017f", "40d1dc5c1e098ead"},
	"RunWorkload/traced":           {"c219d9d2c023e90a", "40b7e531d2a2d8ad"},
	"RunWorkload/partial":          {"108618148dd0ee16", "40c078bc8c8c4c77"},
	"RunWorkload/blind":            {"baf3275d12655261", "40b09a0000000000"},
	"RunTwoLevel":                  {"cdb0f99d1d383f62", "40cabe60fb4f2213"},
	"RunScenario/cluster-twolevel": {"4b5719c2232f33c6", "40b9115f880f37f4"},
	"RunScenario/partial-failstop": {"e9a8cf6493774980", "40bc9029ed05ab40"},
	"ReplicateScenario":            {"9c7e6efd8be7cdc2", "40b8d83a4c1a6ec4"},
}

func TestFacadeGolden(t *testing.T) {
	cases := facadeGoldenCases(t)
	if len(cases) != len(facadeGolden) {
		t.Fatalf("%d cases, %d pins", len(cases), len(facadeGolden))
	}
	for _, c := range cases {
		want, ok := facadeGolden[c.name]
		if !ok {
			t.Errorf("%s: no pin", c.name)
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(c.canon))
		got := fmt.Sprintf("%016x", h.Sum64())
		if got != want.hash || bits(c.makespan) != want.makespan {
			t.Errorf("%s: got hash %s makespan %s, want %s %s\n  canonical: %s",
				c.name, got, bits(c.makespan), want.hash, want.makespan, c.canon)
		}
	}
}
