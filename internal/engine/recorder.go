package engine

import "respeed/internal/energy"

// Recorder advances simulated time and bills the energy of every
// segment. Implementations differ only in how they accumulate: the two
// variants preserve the exact float-summation order of the legacy
// simulators they back, which is what keeps refactored reports
// bit-identical.
type Recorder interface {
	// Advance moves the clock by dur seconds spent in act at speed
	// sigma (sigma is ignored for I/O and idle activity).
	Advance(dur float64, act energy.Activity, sigma float64)
	// Clock returns the current simulation time in seconds.
	Clock() float64
	// Energy returns the total energy consumed so far in mW·s.
	Energy() float64
}

// SumRecorder accumulates energy with a plain running sum — the
// billing of abstract pattern replication, the node-aggregation
// experiment and the façade's two-level runs.
type SumRecorder struct {
	model  energy.Model
	clock  float64
	joules float64
}

// NewSumRecorder builds a plain-sum recorder over the model.
func NewSumRecorder(model energy.Model) *SumRecorder {
	return &SumRecorder{model: model}
}

// Advance implements Recorder.
func (r *SumRecorder) Advance(dur float64, act energy.Activity, sigma float64) {
	r.clock += dur
	switch act {
	case energy.Compute, energy.Verify:
		r.joules += float64(r.model.ComputeEnergy(dur, sigma))
	case energy.Checkpoint, energy.Recovery:
		r.joules += float64(r.model.IOEnergy(dur))
	default:
		r.joules += float64(r.model.IdleEnergy(dur))
	}
}

// Clock implements Recorder.
func (r *SumRecorder) Clock() float64 { return r.clock }

// Energy implements Recorder.
func (r *SumRecorder) Energy() float64 { return r.joules }

// MeterRecorder bills energy on an energy.Meter (compensated
// summation with a per-activity breakdown) — the billing used by
// composed scenarios and the façade's single-level runs.
type MeterRecorder struct {
	meter *energy.Meter
	clock float64
}

// NewMeterRecorder builds a metering recorder over the model.
func NewMeterRecorder(model energy.Model) *MeterRecorder {
	return &MeterRecorder{meter: energy.NewMeter(model)}
}

// Advance implements Recorder.
func (r *MeterRecorder) Advance(dur float64, act energy.Activity, sigma float64) {
	r.clock += dur
	r.meter.Record(act, dur, sigma)
}

// Clock implements Recorder.
func (r *MeterRecorder) Clock() float64 { return r.clock }

// Energy implements Recorder.
func (r *MeterRecorder) Energy() float64 { return r.meter.Total() }

// Snapshot returns the per-activity energy breakdown.
func (r *MeterRecorder) Snapshot() energy.Breakdown { return r.meter.Snapshot() }

// breakdowner is the optional Recorder extension App uses to fill the
// report's EnergyBreakdown.
type breakdowner interface {
	Snapshot() energy.Breakdown
}
