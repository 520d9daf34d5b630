// Package engine is the one simulation core behind every
// fault-injection experiment in this repository. It decomposes a
// resilient execution into orthogonal, composable policies:
//
//   - FaultProcess samples when errors strike: a single aggregate
//     platform process (AggregateFaults, the paper's model), N
//     independent per-node Poisson processes whose earliest arrival
//     decides each window (PerNodeFaults), or renewal processes over
//     arbitrary inter-arrival laws, bursts and trace replay, built from
//     a read-only Renewal description (RenewalFaults). A process owns
//     its draws and counts every strike it reports against the node it
//     struck, and it corrupts state through faults.Corrupt.
//   - Tier decides where checkpoints go and what a rollback costs:
//     SingleLevel (one verified checkpoint slot, the paper's C/R) or
//     TwoLevel (a memory and a disk slot, with disk rollbacks that lose
//     committed patterns).
//   - Recorder advances the clock and bills energy: SumRecorder (plain
//     accumulation) or MeterRecorder (energy.Meter with per-activity
//     breakdown).
//   - Detection comes from package detect (guaranteed digests plus
//     sampled-window partial verifications).
//
// Two executors drive these policies. PatternEngine replays the
// abstract renewal process of one pattern (durations and energies only,
// no application state) — the statistical workhorse behind the
// Monte-Carlo validations and the node-aggregation check. App drives a
// real state-carrying workload through the full protocol — fault
// injection flips bits in real state, verification compares the live
// state with a clean reference trajectory the process steps once per
// workload and pattern sequence, checkpoints store real bytes — and
// Scenario composes it declaratively (multi-node + two-level, partial
// verification + fail-stop, ...); one pooled assembly builds every
// Scenario run, single runs and replications alike (scenariopool.go).
// The reference stores the clean states, so a live state equal to its
// entry passes on one compare and only a differing one is digested,
// both sides; above MaxReferenceBytes it stores one digest per pattern
// instead (reference.go). It is sound because workloads are deterministic
// (package workload) and detectors are pure functions of the bytes
// (package detect); only partial verification, whose sampled windows
// compare raw bytes, steps a live clean replica. A verification that
// fails with no error injected in its attempt means the run left its
// reference: the App returns an error instead of retrying.
//
// Every executor is deterministic given its seed material and preserves
// the legacy simulators' exact float-operation and RNG-draw order, so
// seeded reports stay bit-identical across refactors (see the golden
// tests of this package and of the root façade).
package engine

import (
	"fmt"

	"respeed/internal/stats"
)

// Plan fixes the execution policy of a pattern: its size and speed pair.
type Plan struct {
	// W is the pattern size in work units (seconds at speed 1).
	W float64
	// Sigma1 is the first-execution speed, Sigma2 the re-execution speed.
	Sigma1, Sigma2 float64
}

// Validate rejects non-positive plans.
func (pl Plan) Validate() error {
	if !(pl.W > 0) || !(pl.Sigma1 > 0) || !(pl.Sigma2 > 0) {
		return fmt.Errorf("engine: invalid plan %+v", pl)
	}
	return nil
}

// Costs fixes the resilience costs and error rates of the platform.
type Costs struct {
	// C, V, R in seconds (V at full speed: verifying at σ takes V/σ).
	C, V, R float64
	// LambdaS and LambdaF are the silent and fail-stop error rates
	// (per second); either may be zero.
	LambdaS, LambdaF float64
}

// Validate rejects negative costs and rates.
func (c Costs) Validate() error {
	if c.C < 0 || c.V < 0 || c.R < 0 || c.LambdaS < 0 || c.LambdaF < 0 {
		return fmt.Errorf("engine: invalid costs %+v", c)
	}
	return nil
}

// PatternResult is the realized outcome of one simulated pattern.
type PatternResult struct {
	// Time is the wall-clock seconds from pattern start to committed
	// checkpoint.
	Time float64
	// Energy is the consumed energy in mW·s.
	Energy float64
	// Attempts counts executions of the pattern (1 = no errors).
	Attempts int
	// SilentErrors and FailStopErrors count the errors that struck.
	SilentErrors, FailStopErrors int
}

// Estimate is the aggregated outcome of replicated simulations.
type Estimate struct {
	// Time and Energy summarize the per-replication realizations.
	Time, Energy stats.Summary
	// TimePerWork and EnergyPerWork are the simulated overheads T/W and
	// E/W directly comparable to the analytical formulas.
	TimePerWork, EnergyPerWork stats.Summary
	// MeanAttempts is the average number of executions per replication.
	MeanAttempts float64
	// Patterns is the replication count.
	Patterns int
}

// PatternSizes splits totalWork into pattern sizes of at most w work
// units each, with the last pattern possibly short. The subtraction
// loop reproduces the historical full-stack simulator's remaining-work
// arithmetic so the size sequence stays bit-identical.
func PatternSizes(totalWork, w float64) []float64 {
	var sizes []float64
	for remaining := totalWork; remaining > 1e-9; {
		s := w
		if s > remaining {
			s = remaining
		}
		sizes = append(sizes, s)
		remaining -= s
	}
	return sizes
}

// WholePatterns returns n patterns of exactly w work units each — the
// two-level layout, where rollback bookkeeping works in whole patterns.
func WholePatterns(n int, w float64) []float64 {
	sizes := make([]float64, n)
	for i := range sizes {
		sizes[i] = w
	}
	return sizes
}
