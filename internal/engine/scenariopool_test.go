package engine

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"respeed/internal/faults"
	"respeed/internal/rngx"
	"respeed/internal/trace"
	"respeed/internal/workload"
)

// The pooled scenario path's contract is bit-exactness with a fresh App
// (freshApp): same stream names, same draws, same component states
// after every in-place reset. These tests replay both paths and require
// reports to match field for field (float bits included) across every
// scenario composition the catalog exercises — including repeated
// scratch reuse, which is where a missed reset would surface as drift
// between consecutive runs.

// scenarioPoolCases covers every policy combination runOnce dispatches
// on: the aggregate fast path, both fault channels, the renewal and
// per-node paths, two-level tiers, partial verification and skipped
// verification. The renewal case keeps its historical label.
func scenarioPoolCases() []struct {
	name string
	sc   Scenario
} {
	base := testScenario()

	bothChannels := base
	bothChannels.Costs.LambdaF = 5e-4

	cluster := clusterScenario()

	partialFS := base
	partialFS.Costs.LambdaF = 5e-4
	partialFS.Partial = &Partial{Segments: 4, Coverage: 0.8, Cost: 0.4}

	renewal := base
	renewal.Costs.LambdaS = 0
	renewal.Renewal = weibullRenewal()

	skip := base
	skip.SkipVerification = true

	heat := base
	heat.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat(64, 0.2)) }

	return []struct {
		name string
		sc   Scenario
	}{
		{"aggregate", base},
		{"both-channels", bothChannels},
		{"cluster-twolevel", cluster},
		{"partial-failstop", partialFS},
		{"renewal-factory", renewal},
		{"skip-verification", skip},
		{"heat-workload", heat},
	}
}

// freshReport is the pre-pool per-replication body: a fresh App
// built by freshApp under the historical stream prefix.
func freshReport(t *testing.T, sc Scenario, seed uint64, i int, sizes []float64) Report {
	t.Helper()
	x, err := freshApp(sc, seed, "scenario/"+strconv.Itoa(i), sizes)
	if err != nil {
		t.Fatalf("freshApp(%d): %v", i, err)
	}
	rep, err := x.Run()
	if err != nil {
		t.Fatalf("fresh run %d: %v", i, err)
	}
	return rep
}

func TestScenarioPoolMatchesRunSized(t *testing.T) {
	const seed = 42
	for _, tc := range scenarioPoolCases() {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.sc.Validate(); err != nil {
				t.Fatal(err)
			}
			c, err := newScenarioCampaign(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			s := getScratch(c)
			defer putScratch(s)
			// Consecutive runs on one scratch: any state a reset missed
			// leaks from run i into run i+1 and breaks the comparison.
			for _, i := range []int{0, 1, 7, 63, 1000} {
				got, err := s.runReport(c, seed, replication(i))
				if err != nil {
					t.Fatalf("runReport(%d): %v", i, err)
				}
				want := freshReport(t, tc.sc, seed, i, c.sizes)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d diverged:\n got %+v\nwant %+v", i, got, want)
				}
			}
		})
	}
}

// TestScenarioScratchReuseAcrossCampaigns drives one scratch through
// alternating campaigns whose workloads differ only in a constructor
// parameter invisible to name and snapshot (Heat's diffusion
// coefficient) — exactly the case the fingerprint witness exists for.
// A scratch that wrongly kept the cached pair would run the wrong
// physics and diverge.
func TestScenarioScratchReuseAcrossCampaigns(t *testing.T) {
	const seed = 9
	mk := func(alpha float64) Scenario {
		sc := testScenario()
		sc.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat(64, alpha)) }
		return sc
	}
	scA, scB := mk(0.1), mk(0.25)
	cA, err := newScenarioCampaign(scA)
	if err != nil {
		t.Fatal(err)
	}
	cB, err := newScenarioCampaign(scB)
	if err != nil {
		t.Fatal(err)
	}
	s := scenarioScratchPool.Get().(*scenarioScratch)
	defer putScratch(s)
	for round := 0; round < 2; round++ {
		for _, cc := range []struct {
			c  *scenarioCampaign
			sc Scenario
		}{{cA, scA}, {cB, scB}} {
			s.prepare(cc.c)
			got, err := s.runReport(cc.c, seed, replication(round))
			if err != nil {
				t.Fatal(err)
			}
			want := freshReport(t, cc.sc, seed, round, cc.c.sizes)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d diverged after campaign switch:\n got %+v\nwant %+v", round, got, want)
			}
		}
	}
}

// TestReplicateScenarioMatchesScalarFanOut checks the whole pooled
// fan-out against the pre-pool reference: per-chunk fresh-App runs
// merged in index order.
func TestReplicateScenarioMatchesScalarFanOut(t *testing.T) {
	const seed, n = 3, 96
	for _, tc := range scenarioPoolCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReplicateScenario(tc.sc, seed, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			sizes := tc.sc.patternSizes()
			chunks := replicateChunks
			if chunks > n {
				chunks = n
			}
			total := estimator{w: tc.sc.TotalWork}
			for c := 0; c < chunks; c++ {
				lo, hi := ChunkBounds(n, chunks, c)
				acc := estimator{w: tc.sc.TotalWork}
				for i := lo; i < hi; i++ {
					rep := freshReport(t, tc.sc, seed, i, sizes)
					acc.add(PatternResult{Time: rep.Makespan, Energy: rep.Energy, Attempts: rep.Attempts})
				}
				total.merge(&acc)
			}
			if want := total.estimate(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("pooled estimate diverged from scalar fan-out:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestReplicateScenarioValidatedMatchesValidating pins the validated
// fast path to the validating entry point.
func TestReplicateScenarioValidatedMatchesValidating(t *testing.T) {
	sc := testScenario()
	a, err := ReplicateScenarioCtx(context.Background(), sc, 11, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReplicateScenarioValidatedCtx(nil, sc, 11, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("validated fan-out diverged: %+v vs %+v", a, b)
	}
}

// recordedRun is one run's report and everything it emitted: the events
// its trace recorder kept and the events its live sink saw.
type recordedRun struct {
	rep         Report
	trace, sink []trace.Event
}

// recordRun runs sc with a fresh trace recorder and sink attached.
func recordRun(t *testing.T, sc Scenario, run func(Scenario) (Report, error)) recordedRun {
	t.Helper()
	rec := trace.New(0)
	var sink []trace.Event
	sc.Trace = rec
	sc.Obs.TraceSink = func(e trace.Event) { sink = append(sink, e) }
	rep, err := run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return recordedRun{rep: rep, trace: rec.Events(), sink: sink}
}

// TestSingleRunsMatchFreshApp holds Run and RunOn, which assemble their
// run on a pooled scratch, to the fresh NewApp construction: the same
// report, trace events and sink events for every catalog composition,
// over several seeds in a row so that the scratch the pool hands back
// is reused. sameBits compares them with reflect.DeepEqual and float
// bits.
func TestSingleRunsMatchFreshApp(t *testing.T) {
	for _, tc := range referenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 42, 1000} {
				got := recordRun(t, tc.sc, func(sc Scenario) (Report, error) { return sc.Run(seed) })
				want := recordRun(t, tc.sc, func(sc Scenario) (Report, error) {
					x, err := freshApp(sc, seed, "scenario", nil)
					if err != nil {
						return Report{}, err
					}
					return x.Run()
				})
				if len(want.trace) == 0 || !reflect.DeepEqual(want.sink, want.trace) {
					t.Fatalf("seed %d: the fresh run recorded %d events and sank %d", seed, len(want.trace), len(want.sink))
				}
				if !sameBits(got, want) {
					t.Fatalf("Run(%d) diverged from a fresh App:\n got %+v\nwant %+v", seed, got.rep, want.rep)
				}

				if len(tc.sc.Nodes) > 0 || tc.sc.Renewal != nil {
					continue // RunOn takes aggregate rates only
				}
				name := fmt.Sprintf("run-on/%d", seed)
				got = recordRun(t, tc.sc, func(sc Scenario) (Report, error) { return sc.RunOn(rngx.NewStream(seed, name)) })
				want = recordRun(t, tc.sc, func(sc Scenario) (Report, error) {
					x, err := freshAppOn(sc, rngx.NewStream(seed, name))
					if err != nil {
						return Report{}, err
					}
					return x.Run()
				})
				if !sameBits(got, want) {
					t.Fatalf("RunOn(%q) diverged from a fresh App:\n got %+v\nwant %+v", name, got.rep, want.rep)
				}
			}
		})
	}
}

// TestRunOnRejectsNilStream pins RunOn's loud failure on a nil stream:
// a run must never fall back to a stream its caller did not name.
func TestRunOnRejectsNilStream(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunOn(nil) did not panic")
		}
	}()
	testScenario().RunOn(nil)
}

// TestPutScratchDropsCallerHooks checks that a scratch returned to the
// pool keeps nothing a single run borrowed from its caller.
func TestPutScratchDropsCallerHooks(t *testing.T) {
	sc := testScenario()
	sc.Partial = &Partial{Segments: 2, Coverage: 0.5, Cost: 0.4}
	sc.Trace = trace.New(0)
	sc.Obs.TraceSink = func(trace.Event) {}
	c, err := newScenarioCampaign(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := getScratch(c)
	if _, err := s.runOnce(c, 1, runName{base: "hooks", index: -1, exec: rngx.NewStream(1, "hooks")}); err != nil {
		t.Fatal(err)
	}
	if sc.Trace.Len() == 0 {
		t.Fatal("the run recorded no events")
	}
	putScratch(s)
	if s.app.cfg.Trace != nil || s.app.cfg.Obs.TraceSink != nil ||
		s.app.ref != nil || s.agg.rng != nil {
		t.Fatalf("pooled scratch kept caller state: %+v", s.app.cfg)
	}

	// A renewal campaign lends the scratch's fault process its
	// description, distributions and trace times.
	rc := testScenario()
	rc.Costs.LambdaS = 0
	rc.Renewal = &Renewal{
		Silent:   &Arrivals{Times: []float64{30, 400}},
		FailStop: &Arrivals{Dist: faults.Weibull{Shape: 0.7, Scale: 1500}},
		Burst:    &Arrivals{Dist: faults.Exponential{Rate: 1e-3}},
		Nodes:    3,
	}
	c, err = newScenarioCampaign(rc)
	if err != nil {
		t.Fatal(err)
	}
	s = getScratch(c)
	if _, err := s.runOnce(c, 1, replication(0)); err != nil {
		t.Fatal(err)
	}
	if !renewalBorrows(&s.renewal) {
		t.Fatal("the renewal run borrowed nothing, so the check below proves nothing")
	}
	putScratch(s)
	if renewalBorrows(&s.renewal) {
		t.Fatal("pooled scratch kept a Dist or trace Times of the campaign's renewal description")
	}
}
