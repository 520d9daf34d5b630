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
// and PerNodeErrors reflects both.
func TestRenewalBurstAttribution(t *testing.T) {
	const nodes = 4
	chans := make([]faults.ArrivalSource, nodes)
	for i := range chans {
		chans[i] = faults.NewRenewal(faults.Exponential{Rate: 1e-9},
			rngx.NewStreamIndexed(9, "burst/fail-", i))
	}
	f, err := NewRenewalFaults(RenewalConfig{
		FailStop: chans,
		Burst: faults.NewRenewal(faults.Exponential{Rate: 1e-2},
			rngx.NewStream(9, "burst/burst")),
		BurstSpread: 1, // every burst fells every node
		Nodes:       nodes,
		RNG:         rngx.NewStream(9, "burst/aux"),
	})
	if err != nil {
		t.Fatal(err)
	}
	bursts := 0
	for i := 0; i < 10_000; i++ {
		out := f.SampleWindow(0, 60, 52)
		if out.FailStop {
			bursts++
			if out.FailNode < 0 || out.FailNode >= nodes {
				t.Fatalf("burst victim %d out of range", out.FailNode)
			}
			f.NoteFailStop(out.FailNode)
		}
	}
	if bursts == 0 {
		t.Fatal("expected bursts at rate 1e-2 over 10k windows")
	}
	errs := f.PerNodeErrors()
	total := 0
	for _, e := range errs {
		total += e
	}
	// Spread 1 fells all 4 nodes per burst: primary (noted) + 3 collateral.
	if total != 4*bursts {
		t.Errorf("per-node errors total %d, want %d (4 per burst)", total, 4*bursts)
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
