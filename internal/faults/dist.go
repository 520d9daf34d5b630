package faults

import (
	"fmt"
	"math"

	"respeed/internal/rngx"
)

// This file extends the fault substrate past the paper's exponential
// inter-arrival model. A Dist samples inter-arrival delays from a
// parametric family (exponential, Weibull, log-normal); two sources
// turn arrivals into a windowed channel the engine's attempt loop can
// consume, both reset in place between executions:
//
//   - Renewal: a renewal process over a Dist, with pending-arrival
//     carry-over across windows (the non-memoryless generalization of
//     the Poisson process);
//   - Schedule: deterministic replay of a recorded arrival-time list
//     (e.g. a CSV failure log read by trace.ReadFaultCSV).
//
// Within(span) exposes a source for span seconds and reports the first
// strike, if any, at its offset into the window. Sources are stateful
// and not safe for concurrent use; one source serves one simulated
// execution at a time.
//
// Determinism contract: every source is a pure function of its inputs
// (dist parameters, stream seed material, or the recorded times) and
// the sequence of Within spans it is asked about. Sources are
// exposure-clocked — a channel's clock advances only while a window is
// sampled, by the window's span (no strike) or by the strike offset
// (strike), and at most one strike is reported per window.

// Dist samples inter-arrival delays. Implementations are stateless
// value types; all randomness comes from the stream passed to Sample.
type Dist interface {
	// Sample draws one inter-arrival delay in seconds (always ≥ 0).
	Sample(rng *rngx.Stream) float64
	// Validate rejects nonsensical parameters.
	Validate() error
}

// Exponential is the paper's memoryless inter-arrival model with the
// given rate (mean 1/Rate).
type Exponential struct {
	Rate float64
}

// Sample implements Dist.
func (d Exponential) Sample(rng *rngx.Stream) float64 { return rng.Exp(d.Rate) }

// Validate implements Dist.
func (d Exponential) Validate() error {
	if !(d.Rate > 0) || math.IsInf(d.Rate, 0) {
		return fmt.Errorf("faults: exponential rate must be positive and finite (got %g)", d.Rate)
	}
	return nil
}

// Weibull has inter-arrival delays Scale·E^(1/Shape) for E ~ Exp(1).
// Shape < 1 models infant-mortality failure clustering (a common fit
// for HPC field data), Shape = 1 degenerates to Exponential with rate
// 1/Scale, Shape > 1 models wear-out.
type Weibull struct {
	// Shape is the Weibull k parameter, Scale the λ parameter in
	// seconds (the 63.2th percentile of the delay).
	Shape, Scale float64
}

// Sample implements Dist via inversion of the standard exponential:
// if E ~ Exp(1) then Scale·E^(1/Shape) is Weibull(Shape, Scale).
func (d Weibull) Sample(rng *rngx.Stream) float64 {
	return d.Scale * math.Pow(rng.Exp(1), 1/d.Shape)
}

// Validate implements Dist.
func (d Weibull) Validate() error {
	if !(d.Shape > 0) || math.IsInf(d.Shape, 0) {
		return fmt.Errorf("faults: weibull shape must be positive and finite (got %g)", d.Shape)
	}
	if !(d.Scale > 0) || math.IsInf(d.Scale, 0) {
		return fmt.Errorf("faults: weibull scale must be positive and finite (got %g)", d.Scale)
	}
	return nil
}

// LogNormal has log-delays distributed N(Mu, Sigma²) — heavy-tailed
// repair/arrival behavior.
type LogNormal struct {
	// Mu and Sigma parameterize the underlying normal (Mu is the log
	// of the median delay in seconds).
	Mu, Sigma float64
}

// Sample implements Dist.
func (d LogNormal) Sample(rng *rngx.Stream) float64 {
	return math.Exp(rng.Normal(d.Mu, d.Sigma))
}

// Validate implements Dist.
func (d LogNormal) Validate() error {
	if math.IsNaN(d.Mu) || math.IsInf(d.Mu, 0) {
		return fmt.Errorf("faults: lognormal mu must be finite (got %g)", d.Mu)
	}
	if !(d.Sigma > 0) || math.IsInf(d.Sigma, 0) {
		return fmt.Errorf("faults: lognormal sigma must be positive and finite (got %g)", d.Sigma)
	}
	return nil
}

// Renewal is a renewal arrival process over a Dist: the delay to the
// next arrival is drawn once and carried over across windows until it
// strikes, then redrawn from the strike instant. With an Exponential
// dist this is distributionally identical to the legacy per-window
// sampling (memorylessness), but the carry-over is what makes
// non-exponential families meaningful.
type Renewal struct {
	dist    Dist
	rng     *rngx.Stream
	pending float64
	primed  bool
}

// Reset arms the process in place over dist and rng, as a fresh process
// starts: the first inter-arrival is drawn lazily on the first Within
// call, so a process reset on a stream of the same seed material
// replays the same arrivals. dist must be valid (its Validate passed);
// Reset panics on a nil dist or stream.
func (r *Renewal) Reset(dist Dist, rng *rngx.Stream) {
	if dist == nil || rng == nil {
		panic("faults: renewal needs a dist and a stream")
	}
	*r = Renewal{dist: dist, rng: rng}
}

// Within exposes the process for span seconds and reports the first
// strike, if any, at its offset into the window.
func (r *Renewal) Within(span float64) (float64, bool) {
	if !r.primed {
		r.pending = r.dist.Sample(r.rng)
		r.primed = true
	}
	if span <= 0 {
		return 0, false
	}
	if r.pending < span {
		at := r.pending
		r.pending = r.dist.Sample(r.rng)
		return at, true
	}
	r.pending -= span
	return 0, false
}

// Schedule replays a recorded list of absolute arrival times (seconds
// of exposure since the execution started) — deterministic trace
// replay of a real failure log. Arrivals the windows never reach are
// simply not delivered.
type Schedule struct {
	times []float64
	clock float64
	idx   int
}

// Reset rewinds the replay in place to the start of times, which must
// pass ValidateArrivalTimes. The slice is read, never copied or
// written, so many schedules may share one.
func (s *Schedule) Reset(times []float64) {
	*s = Schedule{times: times}
}

// ValidateArrivalTimes checks a replay time list: finite, non-negative,
// non-decreasing.
func ValidateArrivalTimes(times []float64) error {
	for i, t := range times {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("faults: arrival time [%d] must be finite and non-negative (got %g)", i, t)
		}
		if i > 0 && t < times[i-1] {
			return fmt.Errorf("faults: arrival times must be non-decreasing ([%d]=%g after %g)", i, t, times[i-1])
		}
	}
	return nil
}

// Within exposes the replay for span seconds and reports the first
// recorded arrival inside the window, if any, at its offset: the clock
// advances by span (no strike) or to the strike's recorded time.
func (s *Schedule) Within(span float64) (float64, bool) {
	if span <= 0 {
		return 0, false
	}
	end := s.clock + span
	if s.idx < len(s.times) && s.times[s.idx] < end {
		at := s.times[s.idx] - s.clock
		if at < 0 {
			// A recorded arrival exactly at (or epsilon before, after a
			// previous strike consumed up to it) the window start
			// strikes immediately.
			at = 0
		}
		s.clock = s.times[s.idx]
		s.idx++
		return at, true
	}
	s.clock = end
	return 0, false
}
