// Package energy implements the paper's power model and an energy meter
// that integrates power over the activity segments of an execution.
//
// The model (Section 2.1 of the paper):
//
//   - Computing or verifying at speed σ draws Pidle + Pcpu(σ) with
//     Pcpu(σ) = κσ³.
//   - Checkpointing and recovering draw Pidle + Pio.
//   - Idle time (not modeled by the paper, but measurable in the
//     simulator) draws Pidle.
//
// All powers are in mW, durations in seconds, energies in mW·s.
package energy

import (
	"fmt"

	"respeed/internal/mathx"
)

// Model is a concrete power model.
type Model struct {
	// Kappa is the dynamic power coefficient (Pcpu(σ) = Kappa·σ³), mW.
	Kappa float64
	// Pidle is the static power, mW.
	Pidle float64
	// Pio is the dynamic I/O power drawn during checkpoint/recovery, mW.
	Pio float64
}

// CPUPower returns the dynamic compute power κσ³ at speed sigma.
func (m Model) CPUPower(sigma float64) float64 {
	return m.Kappa * sigma * sigma * sigma
}

// ComputePower returns the total power while computing at speed sigma:
// κσ³ + Pidle.
func (m Model) ComputePower(sigma float64) float64 {
	return float64(m.CPUPower(sigma)) + m.Pidle
}

// IOPower returns the total power during checkpoint or recovery:
// Pio + Pidle.
func (m Model) IOPower() float64 { return m.Pio + m.Pidle }

// ComputeEnergy returns the energy to execute for dur seconds at speed
// sigma.
func (m Model) ComputeEnergy(dur, sigma float64) float64 {
	return dur * m.ComputePower(sigma)
}

// IOEnergy returns the energy for dur seconds of checkpoint/recovery I/O.
func (m Model) IOEnergy(dur float64) float64 {
	return dur * m.IOPower()
}

// IdleEnergy returns the energy for dur seconds idle.
func (m Model) IdleEnergy(dur float64) float64 {
	return dur * m.Pidle
}

// Activity classifies what the platform is doing during a segment.
type Activity int

// Activities recognized by the meter.
const (
	// Compute is work execution at some speed.
	Compute Activity = iota
	// Verify is verification at some speed (same power law as Compute).
	Verify
	// Checkpoint is checkpoint I/O.
	Checkpoint
	// Recovery is recovery I/O.
	Recovery
	// Idle is time with the platform on but inactive.
	Idle
	numActivities
)

// String returns the activity name.
func (a Activity) String() string {
	switch a {
	case Compute:
		return "compute"
	case Verify:
		return "verify"
	case Checkpoint:
		return "checkpoint"
	case Recovery:
		return "recovery"
	case Idle:
		return "idle"
	default:
		return fmt.Sprintf("activity(%d)", int(a))
	}
}

// Meter integrates energy over recorded segments, with a per-activity
// breakdown. The zero value is ready to use. Meter is not safe for
// concurrent use; give each simulation replica its own.
type Meter struct {
	model     Model
	total     mathx.Accumulator
	byact     [numActivities]mathx.Accumulator
	timeByAct [numActivities]mathx.Accumulator
}

// NewMeter creates a meter for the given power model.
func NewMeter(m Model) *Meter { return &Meter{model: m} }

// Model returns the meter's power model.
func (mt *Meter) Model() Model { return mt.model }

// Record adds a segment of dur seconds of the given activity. For
// Compute and Verify, sigma is the execution speed; it is ignored for
// I/O and idle segments. Negative durations panic: they always indicate
// a simulator bug.
func (mt *Meter) Record(act Activity, dur, sigma float64) {
	if dur < 0 {
		panic(fmt.Sprintf("energy: negative duration %g for %s", dur, act))
	}
	var e float64
	switch act {
	case Compute, Verify:
		e = mt.model.ComputeEnergy(dur, sigma)
	case Checkpoint, Recovery:
		e = mt.model.IOEnergy(dur)
	case Idle:
		e = mt.model.IdleEnergy(dur)
	default:
		panic(fmt.Sprintf("energy: unknown activity %d", int(act)))
	}
	mt.total.Add(e)
	mt.byact[act].Add(e)
	mt.timeByAct[act].Add(dur)
}

// Total returns the total energy recorded, in mW·s.
func (mt *Meter) Total() float64 { return mt.total.Total() }

// ByActivity returns the energy attributed to one activity.
func (mt *Meter) ByActivity(act Activity) float64 {
	return mt.byact[act].Total()
}

// TimeIn returns the wall-clock seconds spent in one activity.
func (mt *Meter) TimeIn(act Activity) float64 {
	return mt.timeByAct[act].Total()
}

// ElapsedTime returns the total wall-clock seconds across all activities.
func (mt *Meter) ElapsedTime() float64 {
	var t float64
	for a := Activity(0); a < numActivities; a++ {
		t += mt.timeByAct[a].Total()
	}
	return t
}

// Reinit re-points the meter at a (possibly different) model and clears
// all recorded segments — the in-place equivalent of NewMeter, for
// pooled executions that reuse one meter across runs.
func (mt *Meter) Reinit(m Model) {
	mt.model = m
	mt.Reset()
}

// Reset clears all recorded segments but keeps the model.
func (mt *Meter) Reset() {
	mt.total.Reset()
	for i := range mt.byact {
		mt.byact[i].Reset()
		mt.timeByAct[i].Reset()
	}
}

// Breakdown is a value snapshot of a meter.
type Breakdown struct {
	Total      float64
	Compute    float64
	Verify     float64
	Checkpoint float64
	Recovery   float64
	Idle       float64
	Elapsed    float64
}

// Snapshot captures the current totals.
func (mt *Meter) Snapshot() Breakdown {
	return Breakdown{
		Total:      mt.Total(),
		Compute:    mt.ByActivity(Compute),
		Verify:     mt.ByActivity(Verify),
		Checkpoint: mt.ByActivity(Checkpoint),
		Recovery:   mt.ByActivity(Recovery),
		Idle:       mt.ByActivity(Idle),
		Elapsed:    mt.ElapsedTime(),
	}
}
