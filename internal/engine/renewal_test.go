// Tests for the renewal fault process and the scenario Faults factory
// hook: determinism, channel draw-order independence from outcomes,
// burst attribution, and bit-exact chunked replication.
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

// renewalConfig builds an aggregate Weibull silent + exponential
// fail-stop configuration on (seed, prefix) streams.
func renewalConfig(seed uint64, prefix string) RenewalConfig {
	return RenewalConfig{
		Silent: faults.NewRenewal(faults.Weibull{Shape: 0.7, Scale: 500},
			rngx.NewStream(seed, prefix+"/renewal/silent")),
		FailStop: []faults.ArrivalSource{faults.NewRenewal(faults.Exponential{Rate: 5e-4},
			rngx.NewStream(seed, prefix+"/renewal/failstop-0"))},
		RNG: rngx.NewStream(seed, prefix+"/renewal/aux"),
	}
}

func TestRenewalConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*RenewalConfig)
		want   string // error substring; "" = valid
	}{
		{"base is valid", func(c *RenewalConfig) {}, ""},
		{"no rng", func(c *RenewalConfig) { c.RNG = nil }, "needs an RNG"},
		{"negative nodes", func(c *RenewalConfig) { c.Nodes = -1 }, "must be ≥ 0"},
		{"channel count mismatch", func(c *RenewalConfig) { c.Nodes = 4 }, "fail-stop channels"},
		{"burst needs nodes", func(c *RenewalConfig) {
			c.Burst = c.FailStop[0]
		}, "need ≥ 2 nodes"},
		{"bad spread", func(c *RenewalConfig) {
			c.Nodes = 2
			c.FailStop = append(c.FailStop, c.FailStop[0])
			c.Burst = c.FailStop[0]
			c.BurstSpread = 1.5
		}, "spread must be in"},
	}
	for _, c := range cases {
		cfg := renewalConfig(1, "t")
		c.mutate(&cfg)
		err := cfg.Validate()
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
		f, err := NewRenewalFaults(renewalConfig(42, "det"))
		if err != nil {
			t.Fatal(err)
		}
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

// TestRenewalFaultsExponentialBehaves sanity-checks strike frequency:
// over many windows the fail-stop hit rate must approximate
// 1 − exp(−λ·span) for the exponential channel.
func TestRenewalFaultsExponentialBehaves(t *testing.T) {
	const (
		span    = 60.0
		rate    = 5e-4
		windows = 200_000
	)
	f, err := NewRenewalFaults(RenewalConfig{
		FailStop: []faults.ArrivalSource{faults.NewRenewal(faults.Exponential{Rate: rate},
			rngx.NewStream(3, "freq/fail"))},
		RNG: rngx.NewStream(3, "freq/aux"),
	})
	if err != nil {
		t.Fatal(err)
	}
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
		chans := make([]faults.ArrivalSource, nodes)
		for i := range chans {
			chans[i] = faults.NewRenewal(faults.Exponential{Rate: 1e-9},
				rngx.NewStreamIndexed(9, "burst/fail-", i))
		}
		f, err := NewRenewalFaults(RenewalConfig{
			FailStop: chans,
			Burst: faults.NewRenewal(faults.Exponential{Rate: 1e-2},
				rngx.NewStream(9, "burst/burst")),
			BurstSpread: spread,
			Nodes:       nodes,
			RNG:         rngx.NewStream(9, "burst/aux"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
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
// per-node silent strike: it comes from the RNG stream only on windows
// that report the strike, never on windows a fail-stop preempted.
func TestRenewalSilentVictimOnlyWhenReported(t *testing.T) {
	const nodes = 3
	build := func(failRate float64) (*RenewalFaults, *rngx.Stream) {
		chans := make([]faults.ArrivalSource, nodes)
		for i := range chans {
			chans[i] = faults.NewRenewal(faults.Exponential{Rate: failRate},
				rngx.NewStreamIndexed(4, "victim/fail-", i))
		}
		f, err := NewRenewalFaults(RenewalConfig{
			Silent: faults.NewRenewal(faults.Exponential{Rate: 10},
				rngx.NewStream(4, "victim/silent")),
			FailStop: chans,
			Nodes:    nodes,
			RNG:      rngx.NewStream(4, "victim/aux"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return f, rngx.NewStream(4, "victim/aux")
	}

	// Every window holds both strikes; the fail-stop preempts the
	// silent one, so no victim is drawn and only fail-stops count.
	f, aux := build(10)
	for w := 0; w < 100; w++ {
		if out := f.SampleWindow(0, 60, 52); !out.FailStop || out.Silent {
			t.Fatalf("window %d: want a fail-stop preempting the silent strike, got %+v", w, out)
		}
	}
	if got, want := f.cfg.RNG.Uint64(), aux.Uint64(); got != want {
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

// weibullScenario is a scenario only the factory hook can express:
// Weibull silent arrivals with an exponential fail-stop channel.
func weibullScenario() Scenario {
	sc := testScenario()
	sc.Costs.LambdaS = 0
	sc.Faults = func(seed uint64, prefix string) (FaultProcess, error) {
		return NewRenewalFaults(renewalConfig(seed, prefix))
	}
	return sc
}

func TestScenarioFaultFactory(t *testing.T) {
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
		t.Fatal("factory scenario must be deterministic in the seed")
	}
	if rep1.FinalProgress != sc.TotalWork {
		t.Errorf("final progress %g, want %g", rep1.FinalProgress, sc.TotalWork)
	}
}

func TestScenarioFactoryValidation(t *testing.T) {
	sc := weibullScenario()
	sc.Costs.LambdaS = 2e-3
	if _, err := sc.Run(1); err == nil || !strings.Contains(err.Error(), "Faults factory") {
		t.Errorf("rates + factory must be rejected, got %v", err)
	}
	sc = weibullScenario()
	sc.Nodes = UniformNodes(4, 2e-3, 0)
	if _, err := sc.Run(1); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("nodes + factory must be rejected, got %v", err)
	}
}

// TestReplicateScenarioChunkBitExact proves the exported chunk API
// reassembles ReplicateScenario's estimate bit-for-bit, for both a
// legacy aggregate scenario and a factory-driven one.
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

// TestRenewalPerNodeErrorsViaInterface pins that App.finish picks up
// per-node attribution from any process exposing PerNodeErrors, not
// just *PerNodeFaults.
func TestRenewalPerNodeErrorsViaInterface(t *testing.T) {
	const nodes = 2
	sc := testScenario()
	sc.Costs.LambdaS = 0
	sc.Faults = func(seed uint64, prefix string) (FaultProcess, error) {
		chans := make([]faults.ArrivalSource, nodes)
		for i := range chans {
			chans[i] = faults.NewRenewal(faults.Exponential{Rate: 2e-3},
				rngx.NewStreamIndexed(seed, prefix+"/renewal/failstop-", i))
		}
		return NewRenewalFaults(RenewalConfig{
			Silent: faults.NewRenewal(faults.Exponential{Rate: 2e-3},
				rngx.NewStream(seed, prefix+"/renewal/silent")),
			FailStop: chans,
			Nodes:    nodes,
			RNG:      rngx.NewStream(seed, prefix+"/renewal/aux"),
		})
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
