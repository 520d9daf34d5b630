package engine

import (
	"context"
	"reflect"
	"testing"

	"respeed/internal/energy"
	"respeed/internal/rngx"
)

// The lane kernel's contract is bit-exactness with the scalar event
// loop: same draws, same decisions, same accumulation order. These
// tests replay the historical per-chunk scalar construction — a fresh
// chunk stream driving PatternEngine.RunPattern — and require the
// kernel's estimator to match it field for field (float bits included)
// across every fault-channel shape the kernel dispatches on.

// scalarChunkReference is the pre-kernel chunk body: the exact
// construction the fan-out used before batching.
func scalarChunkReference(plan Plan, costs Costs, model energy.Model, seed uint64, chunk, lo, hi int, acc *estimator) {
	rng := new(rngx.Stream)
	rng.ReseedIndexed(seed, "replicate/chunk-", chunk)
	agg := NewAggregateFaults(costs.LambdaS, costs.LambdaF, rng)
	rec := &SumRecorder{model: model}
	eng := &PatternEngine{cfg: PatternConfig{Plan: plan, Costs: costs, Faults: agg, Recorder: rec}}
	for r := lo; r < hi; r++ {
		acc.add(eng.RunPattern())
	}
}

var laneKernelCases = []struct {
	name  string
	plan  Plan
	costs Costs
}{
	{"silent-only", Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}, Costs{C: 6, V: 1.5, R: 6, LambdaS: 1e-4}},
	{"silent-hot", Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8}, Costs{C: 6, V: 1.5, R: 6, LambdaS: 2e-2}},
	{"failstop-only", Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}, Costs{C: 6, V: 1.5, R: 6, LambdaF: 3e-4}},
	{"failstop-hot", Plan{W: 120, Sigma1: 0.5, Sigma2: 1}, Costs{C: 2, V: 0.5, R: 3, LambdaF: 5e-3}},
	{"both-channels", Plan{W: 500, Sigma1: 0.4, Sigma2: 0.8}, Costs{C: 6, V: 1.5, R: 6, LambdaS: 2e-3, LambdaF: 5e-4}},
	{"fault-free", Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}, Costs{C: 6, V: 1.5, R: 6}},
	{"zero-verify", Plan{W: 800, Sigma1: 0.6, Sigma2: 0.9}, Costs{C: 4, R: 5, LambdaS: 1e-3, LambdaF: 2e-4}},
}

func TestLaneKernelMatchesScalarChunk(t *testing.T) {
	model := testModel()
	for _, tc := range laneKernelCases {
		t.Run(tc.name, func(t *testing.T) {
			k := newPatternKernel(tc.plan, tc.costs, model)
			for _, span := range []struct{ chunk, lo, hi int }{
				{0, 0, 1}, {3, 48, 64}, {17, 272, 600}, {63, 1008, 1024},
			} {
				want := estimator{w: tc.plan.W}
				scalarChunkReference(tc.plan, tc.costs, model, 42, span.chunk, span.lo, span.hi, &want)
				got := estimator{w: tc.plan.W}
				if err := k.runChunk(context.Background(), 42, span.chunk, span.lo, span.hi, &got); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("chunk %d [%d,%d): kernel estimator %+v, scalar %+v",
						span.chunk, span.lo, span.hi, got, want)
				}
			}
		})
	}
}

func TestReplicatePatternParallelMatchesScalarFanOut(t *testing.T) {
	model := testModel()
	const seed, n = 9, 500
	for _, tc := range laneKernelCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReplicatePatternParallelCtx(context.Background(), tc.plan, tc.costs, model, seed, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			chunks := replicateChunks
			if chunks > n {
				chunks = n
			}
			total := estimator{w: tc.plan.W}
			for c := 0; c < chunks; c++ {
				lo, hi := ChunkBounds(n, chunks, c)
				acc := estimator{w: tc.plan.W}
				scalarChunkReference(tc.plan, tc.costs, model, seed, c, lo, hi, &acc)
				total.merge(&acc)
			}
			if want := total.estimate(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("parallel estimate diverged from scalar fan-out:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
