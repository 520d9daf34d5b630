package engine

import (
	"fmt"

	"respeed/internal/detect"
	"respeed/internal/energy"
	"respeed/internal/trace"
)

// Partial configures intermediate partial verifications: each pattern
// splits into Segments chunks with a cheap sampled-window check after
// every chunk but the last; the guaranteed verification still runs
// before each checkpoint.
type Partial struct {
	// Segments is m ≥ 2 (m = 1 is the base pattern; use nil instead).
	Segments int
	// Coverage is the sampled-window fraction per partial check; for a
	// localized corruption the detection probability (recall) equals it.
	Coverage float64
	// Cost is one partial check's cost at full speed, in seconds.
	Cost float64
}

// Validate rejects nonsensical partial configurations.
func (pe *Partial) Validate() error {
	if pe.Segments < 2 {
		return fmt.Errorf("engine: partial execution needs ≥ 2 segments (got %d)", pe.Segments)
	}
	if pe.Coverage <= 0 || pe.Coverage > 1 {
		return fmt.Errorf("engine: partial coverage %g outside (0,1]", pe.Coverage)
	}
	if pe.Cost < 0 {
		return fmt.Errorf("engine: negative partial check cost %g", pe.Cost)
	}
	return nil
}

// AppConfig assembles the policies of a full-stack execution.
type AppConfig struct {
	// Plan is the pattern policy (W, σ1, σ2). Sizes may shorten the
	// final pattern below W.
	Plan Plan
	// Verify is V, the guaranteed verification cost at full speed.
	Verify float64
	// Sizes is the pattern work sequence (PatternSizes or
	// WholePatterns).
	Sizes []float64
	// Faults samples error arrivals; Tier persists and rolls back
	// state; Recorder advances time and bills energy.
	Faults   FaultProcess
	Tier     Tier
	Recorder Recorder
	// Detector verifies state; nil selects FNV-64a.
	Detector detect.Detector
	// Trace, when non-nil, records the schedule.
	Trace *trace.Recorder
	// Obs carries the observability hooks (cumulative counters, live
	// trace sink); the zero value disables them.
	Obs Options
	// SkipVerification disables the verification step entirely: no V
	// cost is paid and checkpoints are committed blindly — the ablation
	// showing WHY verified checkpoints are taken.
	SkipVerification bool
	// Partial enables intermediate partial verifications; Sampled is
	// the sampled-window verifier to use (required with Partial).
	// Mutually exclusive with SkipVerification.
	Partial *Partial
	Sampled *detect.SampledVerifier
}

// Report is the unified outcome of a full-stack execution. Wrappers
// project it onto the legacy ExecReport/TwoLevelReport shapes.
type Report struct {
	// Makespan is the total wall-clock seconds; Energy the total mW·s.
	Makespan, Energy float64
	// Patterns counts committed pattern executions (re-commits after a
	// disk rollback included); Attempts every execution attempt.
	Patterns, Attempts int
	// SilentInjected counts injected SDCs; SilentDetected the ones
	// caught by a verification.
	SilentInjected, SilentDetected int
	// FailStops counts fail-stop errors.
	FailStops int
	// MemCommits/DiskCommits and MemRecoveries/DiskRecoveries count
	// two-level tier activity (zero under SingleLevel).
	MemCommits, DiskCommits       int
	MemRecoveries, DiskRecoveries int
	// PatternsLost is the committed patterns re-done because a
	// fail-stop wiped the memory level.
	PatternsLost int
	// PartialChecks and PartialDetections count intermediate partial
	// verifications and their catches.
	PartialChecks, PartialDetections int
	// FinalProgress is the workload's progress counter at completion.
	FinalProgress float64
	// StateDigest fingerprints the final state.
	StateDigest detect.Digest
	// EnergyBreakdown attributes energy per activity (zero unless the
	// recorder meters it).
	EnergyBreakdown energy.Breakdown
	// CkptStats aggregates checkpoint activity.
	CkptStats CkptStats
	// PerNodeErrors attributes errors to nodes (nil for aggregate
	// fault processes).
	PerNodeErrors []int
}

// App drives a real state-carrying workload through the composed
// policies: fault injection flips bits in real state, verification
// compares the live state with the clean reference trajectory,
// checkpoints store real bytes, recovery restores them.
//
// The reference is computed once, not stepped alongside every run: by
// the Workload determinism contract the clean state after pattern k is
// the same bytes in every run and on every retry, and every rollback
// restores a verified checkpoint equal to the reference at its pattern.
// NewApp steps one per App; a Scenario's runs share one per workload
// and pattern sequence for the life of the process (referenceMemo).
// It stores the clean states, so a state equal to its entry passes
// without a digest and only a differing one is digested, both sides, to
// reach the detector's decision (above MaxReferenceBytes it stores
// digests instead). Only partial verification keeps a live clean
// replica, because its sampled windows compare raw bytes at segment
// boundaries.
type App struct {
	cfg  AppConfig
	main *Runner
	// ref is the clean trajectory (nil under SkipVerification and
	// Partial); it is read-only and may be shared by concurrent runs.
	ref *reference
	// replica is the live clean copy partial verification samples (nil
	// otherwise); the tiers roll it back alongside main.
	replica  *Runner
	verifier *detect.Verifier
	rec      Recorder
	rep      Report

	// corruptBuf is the scratch snapshot injectSDC corrupts, reused
	// across injections (and across runs on the pooled scenario path).
	corruptBuf []byte
}

// NewApp validates the configuration and builds the executor.
func NewApp(cfg AppConfig, wl *Runner) (*App, error) {
	if err := cfg.Plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.Verify < 0 {
		return nil, fmt.Errorf("engine: negative verification cost %g", cfg.Verify)
	}
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("engine: empty pattern size list (TotalWork must be positive)")
	}
	if wl == nil {
		return nil, fmt.Errorf("engine: nil workload")
	}
	if cfg.Faults == nil || cfg.Tier == nil || cfg.Recorder == nil {
		return nil, fmt.Errorf("engine: incomplete policy set (faults/tier/recorder required)")
	}
	if cfg.Partial != nil {
		if cfg.SkipVerification {
			return nil, fmt.Errorf("engine: Partial and SkipVerification are mutually exclusive")
		}
		if err := cfg.Partial.Validate(); err != nil {
			return nil, err
		}
		if cfg.Sampled == nil {
			return nil, fmt.Errorf("engine: Partial requires a sampled verifier")
		}
	}
	x := &App{
		cfg:      cfg,
		main:     wl,
		verifier: detect.NewVerifier(cfg.Detector),
		rec:      cfg.Recorder,
	}
	switch {
	case cfg.Partial != nil:
		x.replica = wl.clone()
	case !cfg.SkipVerification:
		x.ref = newReference(wl.clone(), cfg.Sizes, x.verifier.Detector())
	}
	return x, nil
}

// injectSDC corrupts the main workload's live state through a
// snapshot round-trip, so the upset lands in the kernel's real data.
func (x *App) injectSDC() error {
	x.corruptBuf = append(x.corruptBuf[:0], x.main.state()...)
	x.cfg.Faults.Corrupt(x.corruptBuf)
	if err := x.main.restore(x.corruptBuf); err != nil {
		return fmt.Errorf("engine: inject SDC: %w", err)
	}
	return nil
}

// restore rolls the workload — and the partial-verification replica,
// when there is one — back to a verified checkpoint.
func (x *App) restore(state []byte) error {
	if err := x.main.restore(state); err != nil {
		return fmt.Errorf("engine: restore main: %w", err)
	}
	if x.replica != nil {
		if err := x.replica.restore(state); err != nil {
			return fmt.Errorf("engine: restore replica: %w", err)
		}
	}
	return nil
}

// Run executes the whole application: every pattern retried (and, under
// a two-level tier, possibly re-done after disk rollbacks) until its
// verification passes and its checkpoint commits. The report attributes
// errors to nodes when the fault process does.
func (x *App) Run() (Report, error) {
	rep, err := x.run()
	rep.PerNodeErrors = x.perNodeErrors()
	return rep, err
}

// perNodeErrors copies the fault process's per-node error counts (nil
// for an aggregate process). Only reports that leave the engine carry
// them: a replication keeps makespan, energy and attempts alone.
func (x *App) perNodeErrors() []int {
	if pn, ok := x.cfg.Faults.(interface{ PerNodeErrors() []int }); ok {
		return pn.PerNodeErrors()
	}
	return nil
}

// run is Run without the per-node error counts.
func (x *App) run() (Report, error) {
	x.cfg.Tier.Init(x)

	pattern, attempt := 0, 0
	errored := false // current pattern already failed at least once
	started := -1    // last pattern a PatternStart was emitted for

	for pattern < len(x.cfg.Sizes) {
		w := x.cfg.Sizes[pattern]
		if pattern != started {
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.PatternStart, Pattern: pattern})
			started = pattern
			attempt = 0
		}
		x.rep.Attempts++
		sigma := x.cfg.Plan.Sigma1
		if errored || x.cfg.Tier.Redo(pattern) {
			sigma = x.cfg.Plan.Sigma2
		}
		computeDur := w / sigma
		verifyDur := x.cfg.Verify / sigma

		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.ComputeStart, Pattern: pattern, Attempt: attempt, Speed: sigma})

		if x.cfg.Partial != nil {
			committed, resume, err := x.attemptPartial(pattern, attempt, w, sigma)
			if err != nil {
				return x.finish(), err
			}
			if committed {
				x.rep.Patterns++
				pattern++
				errored = false
				continue
			}
			pattern, attempt, errored = resume, attempt+1, true
			continue
		}

		// Fail-stop errors can strike anywhere in compute+verify.
		out := x.cfg.Faults.SampleWindow(x.rec.Clock(), computeDur+verifyDur, computeDur)
		if out.FailStop {
			x.rec.Advance(out.FailStopAt, energy.Compute, sigma)
			x.rep.FailStops++
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.FailStop, Pattern: pattern, Attempt: attempt, Speed: sigma})
			resume, err := x.cfg.Tier.OnFailStop(x, pattern)
			if err != nil {
				return x.finish(), err
			}
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Recovery, Pattern: pattern, Attempt: attempt})
			pattern, attempt, errored = resume, attempt+1, true
			continue
		}

		// Advance the workload, then possibly corrupt its state. The
		// verification below compares it with the clean reference — the
		// "application-specific check" the paper abstracts as V.
		x.main.advance(w)
		if out.Silent {
			if err := x.injectSDC(); err != nil {
				return x.finish(), err
			}
			x.rep.SilentInjected++
		}
		x.rec.Advance(computeDur, energy.Compute, sigma)
		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.ComputeEnd, Pattern: pattern, Attempt: attempt, Speed: sigma})

		if x.cfg.SkipVerification {
			// Blind checkpoint: the corruption (if any) is committed.
			// The verified-commit discipline is deliberately subverted —
			// that is the hazard under study.
			x.cfg.Tier.Commit(x, pattern, attempt)
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.PatternDone, Pattern: pattern, Attempt: attempt})
			x.rep.Patterns++
			pattern++
			errored = false
			continue
		}

		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.VerifyStart, Pattern: pattern, Attempt: attempt, Speed: sigma})
		x.rec.Advance(verifyDur, energy.Verify, sigma)
		if !x.ref.verify(x.verifier, pattern, x.main.state()) {
			resume, err := x.verifyFailed(pattern, attempt, "digest mismatch", out.Silent)
			if err != nil {
				return x.finish(), err
			}
			pattern, attempt, errored = resume, attempt+1, true
			continue
		}
		if out.Silent {
			// A flip that verification cannot see would poison the next
			// checkpoint: fail loudly, this must be impossible with a
			// sound detector over differing states.
			return x.finish(), fmt.Errorf("engine: injected SDC escaped verification (pattern %d)", pattern)
		}
		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.VerifyOK, Pattern: pattern, Attempt: attempt})

		x.cfg.Tier.Commit(x, pattern, attempt)
		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.PatternDone, Pattern: pattern, Attempt: attempt})
		x.rep.Patterns++
		pattern++
		errored = false
	}

	return x.finish(), nil
}

// verifyFailed counts a failed verification, rolls back and returns the
// pattern to resume from. Only an error injected in the attempt moves a
// run off its clean reference; a failure without one means the run left
// it some other way (a workload whose clone or restore diverges), so no
// retry can pass and the run fails instead.
func (x *App) verifyFailed(pattern, attempt int, detail string, injected bool) (int, error) {
	if !injected {
		return 0, fmt.Errorf("engine: verification of pattern %d failed with no error injected: the run left its reference trajectory", pattern)
	}
	x.rep.SilentDetected++
	x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.VerifyFail, Pattern: pattern, Attempt: attempt, Detail: detail})
	resume, err := x.cfg.Tier.OnVerifyFail(x, pattern)
	if err != nil {
		return 0, err
	}
	x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Recovery, Pattern: pattern, Attempt: attempt})
	return resume, nil
}

// emit records a trace event into the recorder and the live sink.
func (x *App) emit(e trace.Event) {
	x.cfg.Trace.Append(e)
	if x.cfg.Obs.TraceSink != nil {
		x.cfg.Obs.TraceSink(e)
	}
}

// finish stamps the closing report fields and folds the run into the
// cumulative counters (exactly once per Run, error paths included).
func (x *App) finish() Report {
	x.rep.Makespan = x.rec.Clock()
	x.rep.Energy = x.rec.Energy()
	if b, ok := x.rec.(breakdowner); ok {
		x.rep.EnergyBreakdown = b.Snapshot()
	}
	x.rep.FinalProgress = x.main.progress()
	x.rep.StateDigest = x.verifier.Detector().Sum(x.main.state())
	x.rep.CkptStats = x.cfg.Tier.Stats()
	x.cfg.Obs.Counters.noteReport(x.rep)
	return x.rep
}

// attemptPartial executes one attempt of a pattern with intermediate
// partial verifications: w work units split into Segments chunks, a
// sampled-window check after each of the first Segments−1 chunks, and
// the guaranteed verification before the checkpoint. It returns
// committed=true when the pattern's checkpoint was committed, and
// otherwise the pattern index to resume from (rollback already done).
func (x *App) attemptPartial(pattern, attempt int, w, sigma float64) (committed bool, resume int, err error) {
	pe := x.cfg.Partial
	m := pe.Segments
	segWork := w / float64(m)
	segDur := segWork / sigma
	partialDur := pe.Cost / sigma
	verifyDur := x.cfg.Verify / sigma
	span := float64(float64(m)*segDur) + float64(float64(m-1)*partialDur) + verifyDur

	// Fail-stop errors may strike anywhere in the attempt span.
	if at, hit := x.cfg.Faults.SampleFailStop(x.rec.Clock(), span); hit {
		x.rec.Advance(at, energy.Compute, sigma)
		x.rep.FailStops++
		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.FailStop, Pattern: pattern, Attempt: attempt, Speed: sigma})
		resume, err := x.cfg.Tier.OnFailStop(x, pattern)
		if err != nil {
			return false, 0, err
		}
		x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.Recovery, Pattern: pattern, Attempt: attempt})
		return false, resume, nil
	}

	injected := false // an SDC struck this attempt
	for k := 1; k <= m; k++ {
		x.main.advance(segWork)
		x.replica.advance(segWork)
		if x.cfg.Faults.SampleSilent(segDur) {
			if err := x.injectSDC(); err != nil {
				return false, 0, err
			}
			x.rep.SilentInjected++
			injected = true
		}
		x.rec.Advance(segDur, energy.Compute, sigma)

		if k <= m-1 {
			// Partial check: cheap, probabilistic.
			x.rec.Advance(partialDur, energy.Verify, sigma)
			x.rep.PartialChecks++
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.VerifyStart, Pattern: pattern, Attempt: attempt, Speed: sigma, Detail: "partial"})
			if !x.cfg.Sampled.Verify(x.main.state(), x.replica.state()) {
				x.rep.PartialDetections++
				resume, err := x.verifyFailed(pattern, attempt, "partial", injected)
				return false, resume, err
			}
			x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.VerifyOK, Pattern: pattern, Attempt: attempt, Detail: "partial"})
		}
	}
	x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.ComputeEnd, Pattern: pattern, Attempt: attempt, Speed: sigma})

	// Guaranteed verification before the checkpoint.
	x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.VerifyStart, Pattern: pattern, Attempt: attempt, Speed: sigma})
	x.rec.Advance(verifyDur, energy.Verify, sigma)
	if !x.verifier.Verify(x.main.state(), x.replica.state()) {
		resume, err := x.verifyFailed(pattern, attempt, "digest mismatch", injected)
		return false, resume, err
	}
	x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.VerifyOK, Pattern: pattern, Attempt: attempt})

	x.cfg.Tier.Commit(x, pattern, attempt)
	x.emit(trace.Event{Time: x.rec.Clock(), Kind: trace.PatternDone, Pattern: pattern, Attempt: attempt})
	return true, 0, nil
}
