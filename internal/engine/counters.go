package engine

import (
	"math"
	"sync/atomic"

	"respeed/internal/trace"
)

// Options carries the engine's observability hooks. The zero value
// disables everything at ~zero cost: no per-event allocations, one nil
// check per trace point, and counters touched only once per completed
// pattern or run.
type Options struct {
	// Counters, when non-nil, accumulates cumulative totals across runs.
	// It is safe to share one Counters across concurrent engines (all
	// updates are atomic), e.g. across ReplicateScenario's workers.
	Counters *Counters
	// TraceSink, when non-nil, receives every trace event as it is
	// emitted — the live-streaming sibling of PatternConfig.Trace /
	// AppConfig.Trace. It is invoked synchronously on the simulation
	// goroutine and must not block; it is NOT called concurrently by a
	// single engine, but replicated runs each need their own sink.
	TraceSink func(trace.Event)
}

// Counters is a set of cumulative, atomically-updated simulation
// totals, designed to be exported as Prometheus counters. A nil
// *Counters is a valid no-op receiver. Totals are noted once per
// committed pattern (PatternEngine) or once per finished run (App), so
// the simulation hot path never touches them mid-pattern.
type Counters struct {
	patterns   atomic.Int64
	attempts   atomic.Int64
	silent     atomic.Int64
	failStops  atomic.Int64
	verifyFail atomic.Int64
	recoveries atomic.Int64
	seconds    atomic.Uint64 // float64 bits
	joules     atomic.Uint64 // float64 bits
}

// CountersSnapshot is a point-in-time copy of a Counters.
type CountersSnapshot struct {
	// Patterns counts committed patterns; Attempts every execution
	// attempt (so Attempts−Patterns is the re-execution overhead).
	Patterns, Attempts int64
	// SilentErrors and FailStopErrors count injected errors;
	// VerifyFailures the verifications that caught a corruption;
	// Recoveries the rollbacks of either kind.
	SilentErrors, FailStopErrors, VerifyFailures, Recoveries int64
	// SimulatedSeconds and SimulatedJoules total the simulated time and
	// energy (mW·s) across runs.
	SimulatedSeconds, SimulatedJoules float64
}

// Snapshot copies the current totals.
func (c *Counters) Snapshot() CountersSnapshot {
	if c == nil {
		return CountersSnapshot{}
	}
	return CountersSnapshot{
		Patterns:         c.patterns.Load(),
		Attempts:         c.attempts.Load(),
		SilentErrors:     c.silent.Load(),
		FailStopErrors:   c.failStops.Load(),
		VerifyFailures:   c.verifyFail.Load(),
		Recoveries:       c.recoveries.Load(),
		SimulatedSeconds: math.Float64frombits(c.seconds.Load()),
		SimulatedJoules:  math.Float64frombits(c.joules.Load()),
	}
}

// notePattern folds one committed pattern's outcome into the totals.
// In the abstract pattern engine every injected silent error is caught
// by the verification, and every error of either kind triggers one
// recovery.
func (c *Counters) notePattern(res PatternResult) {
	if c == nil {
		return
	}
	c.patterns.Add(1)
	c.attempts.Add(int64(res.Attempts))
	c.silent.Add(int64(res.SilentErrors))
	c.failStops.Add(int64(res.FailStopErrors))
	c.verifyFail.Add(int64(res.SilentErrors))
	c.recoveries.Add(int64(res.SilentErrors + res.FailStopErrors))
	addFloat(&c.seconds, res.Time)
	addFloat(&c.joules, res.Energy)
}

// noteReport folds one finished full-stack run into the totals.
func (c *Counters) noteReport(rep Report) {
	if c == nil {
		return
	}
	c.patterns.Add(int64(rep.Patterns))
	c.attempts.Add(int64(rep.Attempts))
	c.silent.Add(int64(rep.SilentInjected))
	c.failStops.Add(int64(rep.FailStops))
	c.verifyFail.Add(int64(rep.SilentDetected))
	c.recoveries.Add(int64(rep.SilentDetected + rep.FailStops))
	addFloat(&c.seconds, rep.Makespan)
	addFloat(&c.joules, rep.Energy)
}

// NoteEstimate folds a finished replication study into the totals:
// est.Patterns committed patterns, their attempts, and the summed
// simulated time and energy. Replication estimates only retain
// aggregate moments, so the per-error-class counters do not move —
// use Options.Counters on a live engine for those.
func (c *Counters) NoteEstimate(est Estimate) {
	if c == nil || est.Patterns == 0 {
		return
	}
	n := float64(est.Patterns)
	c.patterns.Add(int64(est.Patterns))
	c.attempts.Add(int64(math.Round(est.MeanAttempts * n)))
	addFloat(&c.seconds, est.Time.Mean*n)
	addFloat(&c.joules, est.Energy.Mean*n)
}

// addFloat atomically adds v to a float64 stored as uint64 bits. v is
// rounded first (float64), so an argument computed as a product never
// fuses with the add once the call is inlined.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+float64(v))) {
			return
		}
	}
}
