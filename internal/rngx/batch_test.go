package rngx

import (
	"fmt"
	"math"
	"testing"
)

// The batch and in-place-reseed APIs exist purely to remove per-call
// overhead from the replication hot path; their contract is that the
// produced variate sequences are bit-identical to the scalar / freshly
// constructed forms. These tests pin that contract across empty, single,
// odd and large sizes.

var batchSizes = []int{0, 1, 2, 7, 63, 64, 65, 1024}

func TestFillFloat64MatchesScalar(t *testing.T) {
	for _, n := range batchSizes {
		batch := NewStream(42, "batch")
		scalar := NewStream(42, "batch")
		dst := make([]float64, n)
		batch.FillFloat64(dst)
		for i, got := range dst {
			want := scalar.Float64()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: FillFloat64[%d] = %v, scalar = %v", n, i, got, want)
			}
		}
		// The streams must also agree on what comes next.
		if batch.Uint64() != scalar.Uint64() {
			t.Fatalf("n=%d: streams diverged after the batch", n)
		}
	}
}

func TestFillExpMatchesScalar(t *testing.T) {
	for _, rate := range []float64{0.25, 1, 3.5} {
		for _, n := range batchSizes {
			batch := NewStream(7, "exp-batch")
			scalar := NewStream(7, "exp-batch")
			dst := make([]float64, n)
			batch.FillExp(dst, rate)
			for i, got := range dst {
				want := scalar.Exp(rate)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("rate=%g n=%d: FillExp[%d] = %v, scalar = %v", rate, n, i, got, want)
				}
			}
			if batch.Uint64() != scalar.Uint64() {
				t.Fatalf("rate=%g n=%d: streams diverged after the batch", rate, n)
			}
		}
	}
}

func TestFillExpRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FillExp(rate=%g) should panic even for an empty dst", rate)
				}
			}()
			NewStream(1, "x").FillExp(nil, rate)
		}()
	}
}

// sampleSome draws a mixed variate sequence exercising every sampler
// state (including the cached Box-Muller pair).
func sampleSome(st *Stream) []float64 {
	out := make([]float64, 0, 16)
	for i := 0; i < 4; i++ {
		out = append(out, st.Float64(), st.Exp(1.5), st.Normal(0, 1), float64(st.Intn(1000)))
	}
	return out
}

func sequencesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestReseedMatchesNewStream(t *testing.T) {
	st := NewStream(9, "first")
	sampleSome(st) // dirty the sampler state (Box-Muller cache)
	st.Reseed(11, "second")
	got := sampleSome(st)
	want := sampleSome(NewStream(11, "second"))
	if !sequencesEqual(got, want) {
		t.Fatal("Reseed did not reproduce a fresh stream's sequence")
	}
	if st.Name() != "second" || st.Seed() != 11 {
		t.Fatalf("Reseed identity: name=%q seed=%d", st.Name(), st.Seed())
	}
}

func TestReseedIndexedMatchesSprintfName(t *testing.T) {
	st := &Stream{}
	for _, idx := range []int{0, 1, 9, 10, 63, 12345} {
		st.ReseedIndexed(3, "replicate/chunk-", idx)
		name := fmt.Sprintf("replicate/chunk-%d", idx)
		want := sampleSome(NewStream(3, name))
		got := sampleSome(st)
		if !sequencesEqual(got, want) {
			t.Fatalf("idx=%d: ReseedIndexed sequence differs from NewStream(%q)", idx, name)
		}
		if st.Name() != name {
			t.Fatalf("idx=%d: Name() = %q, want %q", idx, st.Name(), name)
		}
	}
}

// TestReseedIndexedNewStreamMatchesNewStream: a new stream derived by
// ReseedIndexed draws what NewStream draws under the concatenated name.
func TestReseedIndexedNewStreamMatchesNewStream(t *testing.T) {
	a := new(Stream)
	a.ReseedIndexed(5, "scenario/", 17)
	b := NewStream(5, "scenario/17")
	if !sequencesEqual(sampleSome(a), sampleSome(b)) {
		t.Fatal("a new stream derived by ReseedIndexed differs from NewStream with the concatenated name")
	}
}

func TestReseedIndexedSuffixMatchesSprintfName(t *testing.T) {
	st := &Stream{}
	sampleSome(NewStream(1, "dirty")) // unrelated; st itself starts zero
	for _, idx := range []int{0, 1, 9, 10, 63, 12345} {
		for _, suffix := range []string{"/exec", "/exec/partial-positions", ""} {
			st.ReseedIndexedSuffix(3, "scenario/", idx, suffix)
			name := fmt.Sprintf("scenario/%d%s", idx, suffix)
			want := sampleSome(NewStream(3, name))
			got := sampleSome(st)
			if !sequencesEqual(got, want) {
				t.Fatalf("idx=%d suffix=%q: sequence differs from NewStream(%q)", idx, suffix, name)
			}
			if st.Name() != name {
				t.Fatalf("idx=%d suffix=%q: Name() = %q, want %q", idx, suffix, st.Name(), name)
			}
		}
	}
	// Later reseeds must drop the suffix again.
	st.ReseedIndexedSuffix(3, "scenario/", 4, "/exec")
	st.ReseedIndexed(3, "replicate/chunk-", 9)
	if st.Name() != "replicate/chunk-9" {
		t.Fatalf("ReseedIndexed after suffix: Name() = %q", st.Name())
	}
	st.ReseedIndexedSuffix(3, "scenario/", 4, "/exec")
	st.Reseed(3, "plain")
	if st.Name() != "plain" {
		t.Fatalf("Reseed after suffix: Name() = %q", st.Name())
	}
}

// expCutoffCases spans the rate/duration shapes the fault samplers see:
// rare faults over long spans, near-certain hits, near-certain misses,
// and degenerate durations.
var expCutoffCases = []struct{ rate, dur float64 }{
	{1e-4, 4320},   // the benchmark pattern's silent channel
	{2e-3, 131.25}, // the scenario catalog's aggregate span
	{5e-4, 137.5},
	{1, 0.5},
	{1, 50},   // hit probability 1 to double precision
	{1e-9, 1}, // hit probability ~1e-9
	{3.5, 0},  // never hits
	{2, -1},   // never hits
	{0.25, math.Inf(1)},
}

func TestExpCutoffMatchesScalarDecision(t *testing.T) {
	for _, tc := range expCutoffCases {
		cut := ExpHitCutoff(tc.rate, tc.dur)
		check := func(u float64) {
			want := -math.Log1p(-u)/tc.rate < tc.dur
			if got := cut.Hit(u); got != want {
				t.Fatalf("rate=%g dur=%g u=%v: Hit=%v, scalar=%v", tc.rate, tc.dur, u, got, want)
			}
		}
		// Random uniforms from the generator's own grid.
		st := NewStream(99, "cutoff")
		for i := 0; i < 4096; i++ {
			check(st.Float64())
		}
		// Exhaustive scan across the guard band and well beyond it on
		// both sides — every grid point near the threshold is decided.
		if tc.dur > 0 && !math.IsInf(tc.dur, 1) {
			k := uint64(math.Ceil((1 - math.Exp(-tc.rate*tc.dur)) * 0x1p53))
			lo := int64(k) - 3*4096
			if lo < 0 {
				lo = 0
			}
			hi := k + 3*4096
			if hi > 1<<53 {
				hi = 1 << 53
			}
			for g := uint64(lo); g < hi; g++ {
				check(float64(g) * 0x1p-53)
			}
		}
		// Grid extremes.
		check(0)
		check(0x1p-53)
		check(float64((uint64(1)<<53)-1) * 0x1p-53)
	}
}

func TestExpCutoffThinsBatchLikeScalarExp(t *testing.T) {
	// The lane kernel's actual usage: one batch fill classified by the
	// cutoff must reproduce the decisions of scalar Exp draws.
	const rate, dur = 2e-3, 131.25
	cut := ExpHitCutoff(rate, dur)
	batch := NewStream(21, "thin")
	scalar := NewStream(21, "thin")
	u := make([]float64, 1024)
	batch.FillFloat64(u)
	for i, ui := range u {
		if got, want := cut.Hit(ui), scalar.Exp(rate) < dur; got != want {
			t.Fatalf("draw %d: batch decision %v, scalar %v", i, got, want)
		}
	}
}

func TestExpHitCutoffRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExpHitCutoff(rate=%g) should panic", rate)
				}
			}()
			ExpHitCutoff(rate, 1)
		}()
	}
}
