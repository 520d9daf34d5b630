package engine

import (
	"fmt"

	"respeed/internal/energy"
	"respeed/internal/trace"
)

// PatternConfig assembles the policies of an abstract pattern
// simulation (durations and energies only, no application state).
type PatternConfig struct {
	// Plan is the pattern policy; Costs supplies C, V, R (the error
	// rates live in the fault process).
	Plan  Plan
	Costs Costs
	// Faults samples error arrivals; Recorder advances time and bills
	// energy.
	Faults   FaultProcess
	Recorder Recorder
	// Trace, when non-nil, records the schedule.
	Trace *trace.Recorder
	// Obs carries the observability hooks (cumulative counters, live
	// trace sink); the zero value disables them.
	Obs Options
	// CombineVerify bills compute+verify as a single Compute segment —
	// the platform-level billing of the node-aggregation experiment.
	// When false, compute and verify are billed (and traced)
	// separately.
	CombineVerify bool
}

// PatternEngine samples the renewal process of one pattern policy. It
// is deterministic given its fault process and not safe for concurrent
// use.
type PatternEngine struct {
	cfg    PatternConfig
	nextID int
}

// NewPatternEngine validates the configuration and builds the engine.
func NewPatternEngine(cfg PatternConfig) (*PatternEngine, error) {
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Costs.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults == nil || cfg.Recorder == nil {
		return nil, fmt.Errorf("engine: incomplete policy set (faults/recorder required)")
	}
	return &PatternEngine{cfg: cfg}, nil
}

// Clock returns the current simulation time in seconds.
func (p *PatternEngine) Clock() float64 { return p.cfg.Recorder.Clock() }

// Energy returns the total energy consumed so far in mW·s.
func (p *PatternEngine) Energy() float64 { return p.cfg.Recorder.Energy() }

// RunPattern executes one pattern to its committed checkpoint and
// returns the realized time and energy. The execution follows the
// paper's Figure 1:
//
//  1. Compute W at the attempt speed (σ1 first, σ2 afterwards). A
//     fail-stop error may strike anywhere in the compute+verify span
//     and aborts the attempt at its arrival offset.
//  2. Verify at the attempt speed; a silent error that struck during
//     the compute span makes the verification fail.
//  3. On any error: recovery (R), then re-execute at σ2.
//  4. On verified success: checkpoint (C) and return.
func (p *PatternEngine) RunPattern() PatternResult {
	var res PatternResult
	rec, fp := p.cfg.Recorder, p.cfg.Faults
	startClock, startJoules := rec.Clock(), rec.Energy()
	id := p.nextID
	p.nextID++
	p.emit(trace.Event{Time: rec.Clock(), Kind: trace.PatternStart, Pattern: id})
	for attempt := 0; ; attempt++ {
		res.Attempts++
		sigma := p.cfg.Plan.Sigma1
		if attempt > 0 {
			sigma = p.cfg.Plan.Sigma2
		}
		computeDur := p.cfg.Plan.W / sigma
		verifyDur := p.cfg.Costs.V / sigma

		p.emit(trace.Event{Time: rec.Clock(), Kind: trace.ComputeStart, Pattern: id, Attempt: attempt, Speed: sigma})

		// Fail-stop errors can strike anywhere in compute+verify;
		// silent errors corrupt the compute span only (the paper's
		// model) and are caught by the verification at the end.
		out := fp.SampleWindow(rec.Clock(), computeDur+verifyDur, computeDur)
		if out.FailStop {
			rec.Advance(out.FailStopAt, energy.Compute, sigma)
			res.FailStopErrors++
			p.emit(trace.Event{Time: rec.Clock(), Kind: trace.FailStop, Pattern: id, Attempt: attempt, Speed: sigma})
			rec.Advance(p.cfg.Costs.R, energy.Recovery, 0)
			p.emit(trace.Event{Time: rec.Clock(), Kind: trace.Recovery, Pattern: id, Attempt: attempt})
			continue
		}

		if p.cfg.CombineVerify {
			// Platform-level billing: the whole compute+verify span is
			// one Compute segment at σ.
			rec.Advance(computeDur+verifyDur, energy.Compute, sigma)
			if out.Silent {
				res.SilentErrors++
				p.emit(trace.Event{Time: rec.Clock(), Kind: trace.VerifyFail, Pattern: id, Attempt: attempt})
				rec.Advance(p.cfg.Costs.R, energy.Recovery, 0)
				p.emit(trace.Event{Time: rec.Clock(), Kind: trace.Recovery, Pattern: id, Attempt: attempt})
				continue
			}
		} else {
			rec.Advance(computeDur, energy.Compute, sigma)
			p.emit(trace.Event{Time: rec.Clock(), Kind: trace.ComputeEnd, Pattern: id, Attempt: attempt, Speed: sigma})
			if out.Silent {
				res.SilentErrors++
				p.emit(trace.Event{Time: rec.Clock(), Kind: trace.SilentError, Pattern: id, Attempt: attempt})
			}

			p.emit(trace.Event{Time: rec.Clock(), Kind: trace.VerifyStart, Pattern: id, Attempt: attempt, Speed: sigma})
			rec.Advance(verifyDur, energy.Verify, sigma)
			if out.Silent {
				p.emit(trace.Event{Time: rec.Clock(), Kind: trace.VerifyFail, Pattern: id, Attempt: attempt})
				rec.Advance(p.cfg.Costs.R, energy.Recovery, 0)
				p.emit(trace.Event{Time: rec.Clock(), Kind: trace.Recovery, Pattern: id, Attempt: attempt})
				continue
			}
			p.emit(trace.Event{Time: rec.Clock(), Kind: trace.VerifyOK, Pattern: id, Attempt: attempt})
		}

		rec.Advance(p.cfg.Costs.C, energy.Checkpoint, 0)
		p.emit(trace.Event{Time: rec.Clock(), Kind: trace.Checkpoint, Pattern: id, Attempt: attempt})
		p.emit(trace.Event{Time: rec.Clock(), Kind: trace.PatternDone, Pattern: id, Attempt: attempt})

		res.Time = rec.Clock() - startClock
		res.Energy = rec.Energy() - startJoules
		p.cfg.Obs.Counters.notePattern(res)
		return res
	}
}

// emit records a trace event into the recorder and the live sink.
func (p *PatternEngine) emit(e trace.Event) {
	p.cfg.Trace.Append(e)
	if p.cfg.Obs.TraceSink != nil {
		p.cfg.Obs.TraceSink(e)
	}
}

// ReplicatePattern runs n patterns on the engine and aggregates the
// outcomes; w normalizes the per-work summaries.
func ReplicatePattern(p *PatternEngine, w float64, n int) (Estimate, error) {
	if n < 1 {
		return Estimate{}, fmt.Errorf("engine: replication count must be ≥ 1")
	}
	acc := newEstimator(w)
	for i := 0; i < n; i++ {
		acc.add(p.RunPattern())
	}
	return acc.estimate(n), nil
}
