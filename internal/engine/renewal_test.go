// Tests for the renewal fault process and the scenario Renewal
// description: validation, determinism, in-place resets, burst and
// silent attribution, and bit-exact chunked replication.
package engine

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"respeed/internal/faults"
	"respeed/internal/rngx"
	"respeed/internal/workload"
)

// weibullRenewal is an aggregate Weibull silent + exponential
// fail-stop composition.
func weibullRenewal() *Renewal {
	return &Renewal{
		Silent:   &Arrivals{Dist: faults.Weibull{Shape: 0.7, Scale: 500}},
		FailStop: &Arrivals{Dist: faults.Exponential{Rate: 5e-4}},
	}
}

func TestRenewalValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Renewal)
		want   string // error substring; "" = valid
	}{
		{"base is valid", func(r *Renewal) {}, ""},
		{"trace replay is valid", func(r *Renewal) { r.Silent = &Arrivals{Times: []float64{5, 5, 9}} }, ""},
		{"negative nodes", func(r *Renewal) { r.Nodes = -1 }, "must be ≥ 0"},
		{"invalid dist", func(r *Renewal) {
			r.FailStop = &Arrivals{Dist: faults.Exponential{Rate: -1}}
		}, "fail-stop channel: faults: exponential rate"},
		{"dist and times", func(r *Renewal) { r.Silent.Times = []float64{1} }, "both a distribution and trace times"},
		{"unordered times", func(r *Renewal) { r.Silent = &Arrivals{Times: []float64{2, 1}} }, "non-decreasing"},
		{"burst needs nodes", func(r *Renewal) { r.Burst = r.FailStop }, "need ≥ 2 nodes"},
		{"bad spread", func(r *Renewal) {
			r.Nodes = 2
			r.Burst = r.FailStop
			r.BurstSpread = 1.5
		}, "spread must be in"},
	}
	for _, c := range cases {
		r := weibullRenewal()
		c.mutate(r)
		err := r.Validate()
		if c.want == "" && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestRenewalFaultsDeterminism(t *testing.T) {
	sample := func() []Outcome {
		f := freshRenewalFaults(weibullRenewal(), 42, "det")
		var outs []Outcome
		for i := 0; i < 200; i++ {
			outs = append(outs, f.SampleWindow(0, 60, 52))
		}
		return outs
	}
	if !reflect.DeepEqual(sample(), sample()) {
		t.Fatal("same seed material must reproduce the same outcomes")
	}
}

// renewalDraws samples one process over mixed windows and records
// everything a run observes: outcomes, fail-stop-only and silent-only
// samples, a corruption and the per-node counts.
func renewalDraws(f *RenewalFaults) []any {
	var out []any
	for i := 0; i < 40; i++ {
		out = append(out, f.SampleWindow(0, 120, 100))
		at, hit := f.SampleFailStop(0, 30)
		out = append(out, at, hit, f.SampleSilent(25))
	}
	state := make([]byte, 64)
	f.Corrupt(state)
	return append(out, state, f.PerNodeErrors())
}

// TestRenewalFaultsResetInPlace re-arms one process across descriptions
// (aggregate and per-node, growing and shrinking node counts, renewal
// and replay channels, with and without bursts), run names and seeds,
// and requires the draws of a process built fresh for each run: a
// channel or count a reset missed leaks into the next run.
func TestRenewalFaultsResetInPlace(t *testing.T) {
	trace := []float64{10, 40, 40, 300, 900}
	descs := []*Renewal{
		weibullRenewal(),
		{
			Silent:      &Arrivals{Dist: faults.LogNormal{Mu: 4, Sigma: 1.2}},
			FailStop:    &Arrivals{Dist: faults.Exponential{Rate: 1e-2}},
			Burst:       &Arrivals{Dist: faults.Weibull{Shape: 0.8, Scale: 200}},
			BurstSpread: 0.5,
			Nodes:       6,
		},
		{Silent: &Arrivals{Times: trace}, FailStop: &Arrivals{Times: trace}},
		{FailStop: &Arrivals{Dist: faults.Weibull{Shape: 0.7, Scale: 150}}, Burst: &Arrivals{Times: trace}, Nodes: 2},
		{Silent: &Arrivals{Dist: faults.Exponential{Rate: 2e-2}}, Nodes: 3},
	}
	names := []struct {
		run    runName
		prefix string
	}{
		{runName{base: "scenario", index: -1}, "scenario"},
		{replication(0), "scenario/0"},
		{replication(1234), "scenario/1234"},
	}
	var f RenewalFaults
	for _, seed := range []uint64{1, 99} {
		for _, desc := range descs {
			for _, name := range names {
				f.reset(desc, seed, name.run)
				want := freshRenewalFaults(desc, seed, name.prefix)
				if got, w := renewalDraws(&f), renewalDraws(want); !reflect.DeepEqual(got, w) {
					t.Fatalf("seed %d, %d nodes, %s: reset process diverged from a fresh one", seed, desc.Nodes, name.prefix)
				}
			}
		}
	}
	f.release()
	if renewalBorrows(&f) {
		t.Fatal("release kept what the last description lent")
	}
}

// renewalBorrows reports whether f holds anything a description lent
// it: the description itself, or a channel (and with it a Dist or trace
// Times), fail-stop channels past the last run's count included.
func renewalBorrows(f *RenewalFaults) bool {
	if f.desc != nil || !reflect.ValueOf(f.silent).IsZero() || !reflect.ValueOf(f.burst).IsZero() {
		return true
	}
	for _, ch := range f.failStop[:cap(f.failStop)] {
		if !reflect.ValueOf(ch).IsZero() {
			return true
		}
	}
	return false
}

// TestRenewalFaultsExponentialBehaves sanity-checks strike frequency:
// over many windows the fail-stop hit rate must approximate
// 1 − exp(−λ·span) for the exponential channel.
func TestRenewalFaultsExponentialBehaves(t *testing.T) {
	const (
		span    = 60.0
		rate    = 5e-4
		windows = 200_000
	)
	f := freshRenewalFaults(&Renewal{FailStop: &Arrivals{Dist: faults.Exponential{Rate: rate}}}, 3, "freq")
	hits := 0
	for i := 0; i < windows; i++ {
		if out := f.SampleWindow(0, span, span); out.FailStop {
			hits++
			if out.FailStopAt < 0 || out.FailStopAt >= span {
				t.Fatalf("strike offset %g outside window", out.FailStopAt)
			}
		}
	}
	want := 1 - math.Exp(-rate*span)
	got := float64(hits) / windows
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("fail-stop window hit rate = %g, want ≈ %g", got, want)
	}
}

// TestRenewalBurstAttribution pins the correlated-burst semantics: the
// burst channel's strikes pick a primary victim and spread collateral,
// and PerNodeErrors counts both as the window is sampled.
func TestRenewalBurstAttribution(t *testing.T) {
	const nodes = 4
	build := func(spread float64) *RenewalFaults {
		return freshRenewalFaults(&Renewal{
			FailStop:    &Arrivals{Dist: faults.Exponential{Rate: 1e-9}},
			Burst:       &Arrivals{Dist: faults.Exponential{Rate: 1e-2}},
			BurstSpread: spread,
			Nodes:       nodes,
		}, 9, "burst")
	}
	// sample runs 10k windows and returns, per burst, the nodes it
	// felled (the per-node counts that window added).
	sample := func(f *RenewalFaults) [][]int {
		var felled [][]int
		for i := 0; i < 10_000; i++ {
			before := f.PerNodeErrors()
			if out := f.SampleWindow(0, 60, 52); !out.FailStop {
				continue
			}
			after := f.PerNodeErrors()
			var hit []int
			for n := range after {
				switch after[n] - before[n] {
				case 0:
				case 1:
					hit = append(hit, n)
				default:
					t.Fatalf("one burst counted node %d %d times", n, after[n]-before[n])
				}
			}
			felled = append(felled, hit)
		}
		if len(felled) == 0 {
			t.Fatal("expected bursts at rate 1e-2 over 10k windows")
		}
		return felled
	}

	// Spread 1 fells all 4 nodes per burst: primary + 3 collateral.
	for i, hit := range sample(build(1)) {
		if len(hit) != nodes {
			t.Fatalf("burst %d felled nodes %v, want all %d", i, hit, nodes)
		}
	}
	// Spread 0 fells the primary victim alone, drawn over every node.
	victims := map[int]bool{}
	for i, hit := range sample(build(0)) {
		if len(hit) != 1 {
			t.Fatalf("burst %d felled nodes %v, want one primary victim", i, hit)
		}
		victims[hit[0]] = true
	}
	if len(victims) != nodes {
		t.Errorf("primary victims %v, want every node", victims)
	}
}

// TestRenewalSilentVictimOnlyWhenReported pins the victim draw of a
// per-node silent strike: it comes from the aux stream only on windows
// that report the strike, never on windows a fail-stop preempted.
func TestRenewalSilentVictimOnlyWhenReported(t *testing.T) {
	const nodes = 3
	build := func(failRate float64) (*RenewalFaults, *rngx.Stream) {
		f := freshRenewalFaults(&Renewal{
			Silent:   &Arrivals{Dist: faults.Exponential{Rate: 10}},
			FailStop: &Arrivals{Dist: faults.Exponential{Rate: failRate}},
			Nodes:    nodes,
		}, 4, "victim")
		return f, rngx.NewStream(4, "victim/renewal/aux")
	}

	// Every window holds both strikes; the fail-stop preempts the
	// silent one, so no victim is drawn and only fail-stops count.
	f, aux := build(10)
	for w := 0; w < 100; w++ {
		if out := f.SampleWindow(0, 60, 52); !out.FailStop || out.Silent {
			t.Fatalf("window %d: want a fail-stop preempting the silent strike, got %+v", w, out)
		}
	}
	if got, want := f.aux.Uint64(), aux.Uint64(); got != want {
		t.Error("a preempted silent strike drew a victim")
	}

	// Without fail-stops every window reports the silent strike, and
	// each draws its victim in turn.
	f, aux = build(1e-12)
	want := make([]int, nodes)
	for w := 0; w < 100; w++ {
		if out := f.SampleWindow(0, 60, 52); out.FailStop || !out.Silent {
			t.Fatalf("window %d: want a silent strike only, got %+v", w, out)
		}
		want[aux.Intn(nodes)]++
	}
	if got := f.PerNodeErrors(); !reflect.DeepEqual(got, want) {
		t.Errorf("silent victims %v, want %v", got, want)
	}
}

// weibullScenario is a scenario only a renewal process can express:
// Weibull silent arrivals with an exponential fail-stop channel.
func weibullScenario() Scenario {
	sc := testScenario()
	sc.Costs.LambdaS = 0
	sc.Renewal = weibullRenewal()
	return sc
}

func TestScenarioRenewal(t *testing.T) {
	sc := weibullScenario()
	rep1, err := sc.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sc.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Makespan != rep2.Makespan || rep1.Energy != rep2.Energy {
		t.Fatal("renewal scenario must be deterministic in the seed")
	}
	if rep1.FinalProgress != sc.TotalWork {
		t.Errorf("final progress %g, want %g", rep1.FinalProgress, sc.TotalWork)
	}
}

func TestScenarioRenewalValidation(t *testing.T) {
	sc := weibullScenario()
	sc.Costs.LambdaS = 2e-3
	if _, err := sc.Run(1); err == nil || !strings.Contains(err.Error(), "Renewal channels") {
		t.Errorf("rates + renewal must be rejected, got %v", err)
	}
	sc = weibullScenario()
	sc.Nodes = UniformNodes(4, 2e-3, 0)
	if _, err := sc.Run(1); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("nodes + renewal must be rejected, got %v", err)
	}
	sc = weibullScenario()
	sc.Renewal.Burst = sc.Renewal.FailStop
	if _, err := ReplicateScenario(sc, 1, 4, 0); err == nil || !strings.Contains(err.Error(), "need ≥ 2 nodes") {
		t.Errorf("an invalid renewal description must be rejected, got %v", err)
	}
}

// TestReplicateScenarioChunkBitExact proves the exported chunk API
// reassembles ReplicateScenario's estimate bit-for-bit, for both a
// legacy aggregate scenario and a renewal one.
func TestReplicateScenarioChunkBitExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"aggregate", testScenario()},
		{"weibull-factory", weibullScenario()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				seed = uint64(11)
				n    = 40
			)
			want, err := ReplicateScenario(tc.sc, seed, n, 4)
			if err != nil {
				t.Fatal(err)
			}
			chunks := ChunkCount(n)
			parts := make([]ChunkEstimate, chunks)
			for c := 0; c < chunks; c++ {
				lo, hi := ChunkBounds(n, chunks, c)
				parts[c], err = ReplicateScenarioChunkValidatedCtx(context.Background(), tc.sc, seed, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
			}
			got := MergeChunkEstimates(tc.sc.TotalWork, n, parts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("merged chunk estimate diverges:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestRenewalPerNodeErrorsViaInterface pins that a single run's report
// picks up per-node attribution from any process exposing
// PerNodeErrors, not just *PerNodeFaults.
func TestRenewalPerNodeErrorsViaInterface(t *testing.T) {
	const nodes = 2
	sc := testScenario()
	sc.Costs.LambdaS = 0
	sc.Renewal = &Renewal{
		Silent:   &Arrivals{Dist: faults.Exponential{Rate: 2e-3}},
		FailStop: &Arrivals{Dist: faults.Exponential{Rate: 2e-3}},
		Nodes:    nodes,
	}
	sc.NewWorkload = func() *Runner { return FromWorkload(workload.NewStream(7, 64)) }
	rep, err := sc.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerNodeErrors) != nodes {
		t.Fatalf("PerNodeErrors = %v, want %d entries", rep.PerNodeErrors, nodes)
	}
}
