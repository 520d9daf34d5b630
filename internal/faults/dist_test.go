package faults

import (
	"math"
	"testing"

	"respeed/internal/rngx"
)

// TestDistValidate exercises the parameter checks of every family.
func TestDistValidate(t *testing.T) {
	valid := []Dist{
		Exponential{Rate: 2e-3},
		Weibull{Shape: 0.7, Scale: 500},
		Weibull{Shape: 1, Scale: 1},
		LogNormal{Mu: 5, Sigma: 1.2},
		LogNormal{Mu: -2, Sigma: 0.1},
	}
	for _, d := range valid {
		if err := d.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", d, err)
		}
	}
	invalid := []Dist{
		Exponential{},
		Exponential{Rate: -1},
		Exponential{Rate: math.Inf(1)},
		Weibull{Shape: 0, Scale: 1},
		Weibull{Shape: 1, Scale: 0},
		Weibull{Shape: -2, Scale: 3},
		LogNormal{Mu: math.NaN(), Sigma: 1},
		LogNormal{Mu: 0, Sigma: 0},
		LogNormal{Mu: math.Inf(1), Sigma: 1},
	}
	for _, d := range invalid {
		if err := d.Validate(); err == nil {
			t.Errorf("%v: expected a validation error", d)
		}
	}
}

// TestDistDeterminism pins that sampling is a pure function of the
// stream: two streams with identical seed material produce identical
// draws for every family.
func TestDistDeterminism(t *testing.T) {
	for _, d := range []Dist{
		Exponential{Rate: 1e-3},
		Weibull{Shape: 0.7, Scale: 800},
		LogNormal{Mu: 6, Sigma: 1.5},
	} {
		a := rngx.NewStream(42, "dist")
		b := rngx.NewStream(42, "dist")
		for i := 0; i < 100; i++ {
			x, y := d.Sample(a), d.Sample(b)
			if x != y {
				t.Fatalf("%v: draw %d diverged: %g vs %g", d, i, x, y)
			}
			if !(x >= 0) || math.IsInf(x, 0) {
				t.Fatalf("%v: draw %d out of range: %g", d, i, x)
			}
		}
	}
}

// TestWeibullShapeOneIsExponential: Weibull with shape 1 must equal
// Exponential with rate 1/scale distributionally — check the sample
// means agree (same stream gives slightly different draw sequences, so
// compare statistics, not bits).
func TestWeibullShapeOneIsExponential(t *testing.T) {
	const n = 200_000
	w := Weibull{Shape: 1, Scale: 250}
	rng := rngx.NewStream(7, "weibull-exp")
	var sum float64
	for i := 0; i < n; i++ {
		sum += w.Sample(rng)
	}
	mean := sum / n
	if math.Abs(mean-250)/250 > 0.02 {
		t.Errorf("shape-1 weibull mean = %g, want ≈ 250", mean)
	}
}

// TestWeibullMean checks the sample mean against Scale·Γ(1+1/Shape).
func TestWeibullMean(t *testing.T) {
	const n = 200_000
	d := Weibull{Shape: 2, Scale: 100}
	want := 100 * math.Gamma(1+1.0/2)
	rng := rngx.NewStream(9, "weibull-mean")
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	mean := sum / n
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("weibull(2,100) mean = %g, want ≈ %g", mean, want)
	}
}

// TestLogNormalMean checks the sample mean against exp(Mu + Sigma²/2).
func TestLogNormalMean(t *testing.T) {
	const n = 400_000
	d := LogNormal{Mu: 3, Sigma: 0.5}
	want := math.Exp(3 + 0.5*0.5/2)
	rng := rngx.NewStream(11, "lognormal-mean")
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	mean := sum / n
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("lognormal(3,0.5) mean = %g, want ≈ %g", mean, want)
	}
}

// TestRenewalCarryOver pins the exposure-clock semantics: a pending
// arrival survives windows that end before it and strikes at the right
// offset once a window reaches it.
func TestRenewalCarryOver(t *testing.T) {
	// fixedDist returns a constant delay, making the arithmetic exact.
	var r Renewal
	r.Reset(fixedDist(100), rngx.NewStream(1, "carry"))
	if _, hit := r.Within(30); hit {
		t.Fatal("arrival at 100 must not strike a [0,30) window")
	}
	if _, hit := r.Within(30); hit {
		t.Fatal("arrival at 100 must not strike a [30,60) window")
	}
	at, hit := r.Within(60)
	if !hit || at != 40 {
		t.Fatalf("expected strike at offset 40, got (%g, %v)", at, hit)
	}
	// The next arrival was redrawn from the strike instant: another
	// constant 100 s away.
	if _, hit := r.Within(99); hit {
		t.Fatal("redrawn arrival must not strike a 99 s window")
	}
	at, hit = r.Within(10)
	if !hit || at != 1 {
		t.Fatalf("expected strike at offset 1, got (%g, %v)", at, hit)
	}
}

// fixedDist is a test Dist with constant inter-arrival delay.
type fixedDist float64

func (d fixedDist) Sample(*rngx.Stream) float64 { return float64(d) }
func (d fixedDist) Validate() error             { return nil }

// TestRenewalZeroSpan: zero and negative spans consume nothing.
func TestRenewalZeroSpan(t *testing.T) {
	var r Renewal
	r.Reset(fixedDist(10), rngx.NewStream(1, "zero"))
	for i := 0; i < 5; i++ {
		if _, hit := r.Within(0); hit {
			t.Fatal("zero span must not strike")
		}
	}
	at, hit := r.Within(11)
	if !hit || at != 10 {
		t.Fatalf("pending must be untouched by zero spans: got (%g, %v)", at, hit)
	}
}

// TestRenewalReplay pins that a renewal process reset in place on a
// stream reseeded with the same seed material replays the arrivals of a
// fresh one, zero spans included: resetting is how a run rewinds it.
func TestRenewalReplay(t *testing.T) {
	dist := Weibull{Shape: 0.7, Scale: 500}
	spans := []float64{120, 45, 300, 0, 80, 600}

	sample := func(r *Renewal) []float64 {
		var out []float64
		for _, span := range spans {
			at, hit := r.Within(span)
			if hit {
				out = append(out, at)
			} else {
				out = append(out, math.NaN())
			}
		}
		return out
	}

	var r Renewal
	rng := rngx.NewStream(7, "reset")
	r.Reset(dist, rng)
	first := sample(&r)
	rng.Reseed(7, "reset")
	r.Reset(dist, rng)
	second := sample(&r)
	hits := 0
	for i := range first {
		a, b := first[i], second[i]
		if (math.IsNaN(a) != math.IsNaN(b)) || (!math.IsNaN(a) && a != b) {
			t.Fatalf("window %d: first %v, replay %v", i, a, b)
		}
		if !math.IsNaN(a) {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no window struck; the replay compared nothing")
	}
}

// TestScheduleReplay pins trace replay: recorded times strike at their
// offsets, in order, exactly once, and the clock only advances with
// exposure.
func TestScheduleReplay(t *testing.T) {
	times := []float64{50, 120, 120.5, 400}
	var s Schedule
	s.Reset(times)
	at, hit := s.Within(100) // clock [0,100): strikes 50
	if !hit || at != 50 {
		t.Fatalf("want strike at 50, got (%g, %v)", at, hit)
	}
	// Clock resumed at 50; window of 60 covers [50,110): no arrival.
	if _, hit := s.Within(60); hit {
		t.Fatal("no arrival in [50,110)")
	}
	at, hit = s.Within(100) // [110,210): strikes 120 at offset 10
	if !hit || at != 10 {
		t.Fatalf("want strike at offset 10, got (%g, %v)", at, hit)
	}
	at, hit = s.Within(100) // clock 120; [120,220): strikes 120.5
	if !hit || at != 0.5 {
		t.Fatalf("want strike at offset 0.5, got (%g, %v)", at, hit)
	}
	// One arrival remains: 400, delivered once the clock reaches it.
	for i := 0; i < 10; i++ {
		if _, hit := s.Within(10); hit {
			t.Fatalf("arrival 400 delivered too early (clock window %d)", i)
		}
	}
	at, hit = s.Within(1000) // clock 220.5: strikes 400 at offset 179.5
	if !hit || at != 179.5 {
		t.Fatalf("want arrival 400 at offset 179.5, got (%g, %v)", at, hit)
	}
	if _, hit := s.Within(1e9); hit {
		t.Fatal("exhausted schedule must not strike")
	}
	// A reset rewinds the replay to the first recorded arrival, and all
	// four arrive again, each once.
	s.Reset(times)
	for _, want := range []float64{50, 70, 0.5, 279.5} {
		if at, hit := s.Within(math.Inf(1)); !hit || at != want {
			t.Fatalf("after reset: (%g, %v), want a strike at offset %g", at, hit, want)
		}
	}
	if _, hit := s.Within(math.Inf(1)); hit {
		t.Fatal("after reset: a fifth arrival struck")
	}
}

// TestScheduleValidation rejects malformed time lists.
func TestScheduleValidation(t *testing.T) {
	bad := [][]float64{
		{-1},
		{math.NaN()},
		{math.Inf(1)},
		{10, 5},
	}
	for _, times := range bad {
		if err := ValidateArrivalTimes(times); err == nil {
			t.Errorf("times %v: expected an error", times)
		}
	}
	if err := ValidateArrivalTimes(nil); err != nil {
		t.Errorf("empty schedule must be valid (a channel with no arrivals): %v", err)
	}
	// Equal adjacent times are allowed (two faults in the same instant
	// of a recorded log).
	if err := ValidateArrivalTimes([]float64{5, 5}); err != nil {
		t.Errorf("equal adjacent times must be valid: %v", err)
	}
}
