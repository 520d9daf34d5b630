// Benchmarks for the unified engine: the abstract pattern executor, the
// full-stack application executor, the composed scenarios, and the
// parallel replication path. BENCH_engine.json at the repo root pins a
// baseline of these numbers; CI runs them in -benchtime=1x smoke mode.
package engine

import (
	"context"
	"fmt"
	"testing"

	"respeed/internal/detect"
	"respeed/internal/faults"
	"respeed/internal/rngx"
	"respeed/internal/workload"
)

// benchPattern builds the abstract pattern engine with frequent errors
// so re-execution paths are exercised (shared with the allocation pins).
func benchPattern(b testing.TB) *PatternEngine {
	b.Helper()
	rng := rngx.NewStream(42, "bench")
	p, err := NewPatternEngine(PatternConfig{
		Plan:     Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8},
		Costs:    Costs{C: 6, V: 1.5, R: 6, LambdaS: 1e-4},
		Faults:   NewAggregateFaults(1e-4, 0, rng),
		Recorder: NewSumRecorder(testModel()),
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkPatternEngineRun(b *testing.B) {
	p := benchPattern(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := p.RunPattern(); res.Attempts < 1 {
			b.Fatal("no attempt")
		}
	}
}

func BenchmarkReplicatePatternParallel(b *testing.B) {
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	costs := Costs{C: 6, V: 1.5, R: 6, LambdaS: 1e-4}
	// Warm the shared executor and lane-scratch pools: this benchmark is
	// alloc-gated in CI's -benchtime=1x smoke mode, where one cold run
	// would otherwise charge pool construction to the steady state.
	if _, err := ReplicatePatternParallelCtx(context.Background(), plan, costs, testModel(), 1, 1000, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicatePatternParallelCtx(context.Background(), plan, costs, testModel(), uint64(i+1), 1000, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppRun(b *testing.B) {
	sc := testScenario()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(uint64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenario measures each composed scenario end-to-end: the
// base aggregate composition, the cluster+two-level composition, and
// the partial+fail-stop composition.
func BenchmarkScenario(b *testing.B) {
	build := map[string]func() Scenario{
		"aggregate":        testScenario,
		"cluster-twolevel": clusterScenario,
		"partial-failstop": func() Scenario {
			sc := testScenario()
			sc.Costs.LambdaF = 5e-4
			sc.Partial = &Partial{Segments: 4, Coverage: 0.8, Cost: 0.4}
			return sc
		},
	}
	for _, name := range []string{"aggregate", "cluster-twolevel", "partial-failstop"} {
		sc := build[name]()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sc.Run(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReplicateScenario(b *testing.B) {
	sc := testScenario()
	// Warm the shared executor and scenario scratch pool (alloc-gated in
	// CI smoke mode; see BenchmarkReplicatePatternParallel).
	if _, err := ReplicateScenario(sc, 1, 50, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicateScenario(sc, uint64(i+1), 50, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// renewalShapeScenario is the weibull-failstop example spec's fault
// composition on the test costs: exponential silent arrivals and
// Weibull fail-stops on renewal channels, on a 64-cell heat kernel.
func renewalShapeScenario() Scenario {
	sc := testScenario()
	sc.Costs.LambdaS = 0
	sc.Renewal = &Renewal{
		Silent:   &Arrivals{Dist: faults.Exponential{Rate: 2e-3}},
		FailStop: &Arrivals{Dist: faults.Weibull{Shape: 0.7, Scale: 1500}},
	}
	sc.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat(64, 0.25)) }
	return sc
}

// BenchmarkReplicateScenarioRenewal replicates the renewal shape 50
// times: the pooled fan-out with a renewal process reset in place per
// run.
func BenchmarkReplicateScenarioRenewal(b *testing.B) {
	sc := renewalShapeScenario()
	// Warm the shared executor and scenario scratch pool (alloc-gated in
	// CI smoke mode; see BenchmarkReplicatePatternParallel).
	if _, err := ReplicateScenario(sc, 1, 50, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicateScenario(sc, uint64(i+1), 50, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterScenario is the cluster-twolevel composition on the test
// costs: four per-node fault processes and memory+disk checkpoints
// every third pattern, on the stream-64 kernel.
func clusterScenario() Scenario {
	sc := testScenario()
	sc.Costs.LambdaS = 0
	sc.Nodes = UniformNodes(4, 2e-3, 5e-4)
	sc.TwoLevel = &TwoLevelSpec{MemC: 1.5, DiskC: 6, DiskR: 12, Every: 3}
	return sc
}

// simulateShapeScenario is the scenario the end-to-end simulate
// workload serves: the cluster-twolevel composition on a 16×16 heat2d
// kernel with short W=5 patterns, so stepping, verification and state
// serialization weigh heavily in every run.
func simulateShapeScenario() Scenario {
	sc := clusterScenario()
	sc.Plan.W = 5
	sc.NewWorkload = func() *Runner { return FromWorkload(workload.NewHeat2D(16, 0.2)) }
	return sc
}

// BenchmarkReferenceBuild builds one clean reference trajectory of the
// simulate shape cold (100 patterns of heat2d 16×16, ≈202 KiB of
// states) and checks it against a second runner, bypassing the
// process-wide memo: what a memo miss costs once per key, and a
// fingerprint-less runner on every call, less the two clones.
// Report-only.
func BenchmarkReferenceBuild(b *testing.B) {
	sc := simulateShapeScenario()
	sizes := sc.patternSizes()
	proto := sc.NewWorkload()
	init := append([]byte(nil), proto.state()...)
	wl, second := proto.Clone(), proto.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wl.restore(init); err != nil {
			b.Fatal(err)
		}
		if err := second.restore(init); err != nil {
			b.Fatal(err)
		}
		if _, err := buildReference(wl, second, sizes, detect.FNV64{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicateScenarioChunk runs the end-to-end campaign's shard
// shape: one replication of cluster-twolevel on stream-64 through
// ReplicateScenarioChunkValidatedCtx, cycling over a 16-shard
// campaign's chunks. Every shard builds its campaign, and takes its
// reference trajectory from the memo.
func BenchmarkReplicateScenarioChunk(b *testing.B) {
	sc := clusterScenario()
	ctx := context.Background()
	if _, err := ReplicateScenarioChunkValidatedCtx(ctx, sc, 11, 0, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i % 16
		if _, err := ReplicateScenarioChunkValidatedCtx(ctx, sc, 11, lo, lo+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicateScenarioSimulate replicates the simulate shape at
// the served replication count (n=8), reference trajectory included.
func BenchmarkReplicateScenarioSimulate(b *testing.B) {
	sc := simulateShapeScenario()
	if _, err := ReplicateScenario(sc, 1, 8, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplicateScenario(sc, uint64(i+1), 8, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerNodeFaults measures per-node earliest-arrival sampling,
// through the cluster's combined-billing pattern engine, as node count
// grows.
func BenchmarkPerNodeFaults(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("nodes-%d", n), func(b *testing.B) {
			fp, err := NewPerNodeFaults(UniformNodes(n, 2e-3, 5e-4), 42, "bench")
			if err != nil {
				b.Fatal(err)
			}
			p, err := NewPatternEngine(PatternConfig{
				Plan:          Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
				Costs:         Costs{C: 6, V: 1.5, R: 6},
				Faults:        fp,
				Recorder:      NewSumRecorder(testModel()),
				CombineVerify: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.RunPattern()
			}
		})
	}
}
