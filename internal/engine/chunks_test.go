package engine

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"respeed/internal/energy"
)

func chunkTestFixture() (Plan, Costs, energy.Model) {
	plan := Plan{W: 500, Sigma1: 0.6, Sigma2: 0.9}
	costs := Costs{C: 6, V: 2, R: 8, LambdaS: 1e-3, LambdaF: 2e-4}
	model := energy.Model{Kappa: 40, Pidle: 20, Pio: 15}
	return plan, costs, model
}

// TestChunkMergeMatchesParallel proves the exported chunk surface is the
// same fan-out: executing every chunk individually (sequentially, out of
// process context) and merging in index order reproduces
// ReplicatePatternParallel bit-for-bit.
func TestChunkMergeMatchesParallel(t *testing.T) {
	plan, costs, model := chunkTestFixture()
	const (
		seed = uint64(42)
		n    = 1000
	)
	want, err := ReplicatePatternParallelCtx(context.Background(), plan, costs, model, seed, n, 4)
	if err != nil {
		t.Fatalf("ReplicatePatternParallel: %v", err)
	}

	chunks := ChunkCount(n)
	parts := make([]ChunkEstimate, chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := ChunkBounds(n, chunks, c)
		parts[c], err = ReplicatePatternChunkCtx(context.Background(), plan, costs, model, seed, c, lo, hi)
		if err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
	}
	got := MergeChunkEstimates(plan.W, n, parts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunk merge diverged from parallel replication:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestChunkMergeSurvivesJSON proves the journal path is lossless: chunk
// estimates serialized to JSON and decoded merge to the identical
// Estimate. This is the property crash-resume determinism rests on.
func TestChunkMergeSurvivesJSON(t *testing.T) {
	plan, costs, model := chunkTestFixture()
	const (
		seed = uint64(7)
		n    = 257 // not a multiple of the chunk count: uneven bounds
	)
	chunks := ChunkCount(n)
	direct := make([]ChunkEstimate, chunks)
	decoded := make([]ChunkEstimate, chunks)
	covered := 0
	for c := 0; c < chunks; c++ {
		lo, hi := ChunkBounds(n, chunks, c)
		covered += hi - lo
		ce, err := ReplicatePatternChunkCtx(context.Background(), plan, costs, model, seed, c, lo, hi)
		if err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
		direct[c] = ce
		data, err := json.Marshal(ce)
		if err != nil {
			t.Fatalf("marshal chunk %d: %v", c, err)
		}
		if err := json.Unmarshal(data, &decoded[c]); err != nil {
			t.Fatalf("unmarshal chunk %d: %v", c, err)
		}
	}
	if covered != n {
		t.Fatalf("chunk bounds cover %d replications, want %d", covered, n)
	}
	got := MergeChunkEstimates(plan.W, n, decoded)
	want := MergeChunkEstimates(plan.W, n, direct)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSON round trip perturbed merged estimate:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestChunkBoundsPartition checks the partition is exact and ordered for
// awkward (n, chunks) combinations.
func TestChunkBoundsPartition(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 100, 1023} {
		chunks := ChunkCount(n)
		if chunks < 1 || chunks > 64 || chunks > n {
			t.Fatalf("n=%d: bad chunk count %d", n, chunks)
		}
		prev := 0
		for c := 0; c < chunks; c++ {
			lo, hi := ChunkBounds(n, chunks, c)
			if lo != prev || hi < lo {
				t.Fatalf("n=%d chunk %d: bounds [%d,%d) not contiguous from %d", n, c, lo, hi, prev)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: partition ends at %d", n, prev)
		}
	}
}
