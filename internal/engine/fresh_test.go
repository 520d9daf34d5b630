package engine

import (
	"respeed/internal/detect"
	"respeed/internal/rngx"
)

// freshApp is the construction every Scenario run used before runs
// shared the pooled assembly: each piece built new, then NewApp, under
// the streams of run prefix ("scenario" for a single Run, "scenario/<i>"
// for replication i). The pooled runs must reproduce it bit for bit, so
// the equivalence tests keep it as their reference. nil sizes
// recomputes the pattern sequence.
func freshApp(sc Scenario, seed uint64, prefix string, sizes []float64) (*App, error) {
	var fp FaultProcess
	var sampledRNG interface{ Intn(int) int }
	if sc.Renewal != nil {
		fp = freshRenewalFaults(sc.Renewal, seed, prefix)
		sampledRNG = rngx.NewStream(seed, prefix+"/partial-positions")
	} else if len(sc.Nodes) > 0 {
		pn, err := NewPerNodeFaults(sc.Nodes, seed, prefix)
		if err != nil {
			return nil, err
		}
		fp = pn
		sampledRNG = rngx.NewStream(seed, prefix+"/partial-positions")
	} else {
		stream := rngx.NewStream(seed, prefix+"/exec")
		fp = NewAggregateFaults(sc.Costs.LambdaS, sc.Costs.LambdaF, stream)
		// Child derivation does not consume stream state, so the fault
		// process is unchanged by enabling partial checks.
		sampledRNG = stream.Child("partial-positions")
	}
	return freshAppWith(sc, fp, sampledRNG, sizes)
}

// freshRenewalFaults builds a new process for one run of the valid desc
// under the streams of run prefix, materialized as one plain name.
func freshRenewalFaults(desc *Renewal, seed uint64, prefix string) *RenewalFaults {
	f := new(RenewalFaults)
	f.reset(desc, seed, runName{base: prefix, index: -1})
	return f
}

// freshAppOn is RunOn's fresh construction: faults on the caller's
// stream, partial positions on its "partial-positions" child.
func freshAppOn(sc Scenario, rng *rngx.Stream) (*App, error) {
	return freshAppWith(sc, NewAggregateFaults(sc.Costs.LambdaS, sc.Costs.LambdaF, rng), rng.Child("partial-positions"), nil)
}

// freshAppWith assembles the App around a fault process and a
// partial-position source.
func freshAppWith(sc Scenario, fp FaultProcess, sampledRNG interface{ Intn(int) int }, sizes []float64) (*App, error) {
	if sizes == nil {
		sizes = sc.patternSizes()
	}
	var tier Tier
	if sc.TwoLevel != nil {
		tier = NewTwoLevel(*sc.TwoLevel, sc.Costs.R, int(sc.TotalWork/sc.Plan.W))
	} else {
		tier = NewSingleLevel(sc.Costs.C, sc.Costs.R)
	}
	var sampled *detect.SampledVerifier
	if sc.Partial != nil {
		sampled = detect.NewSampledVerifier(sc.Detector, sampledRNG, sc.Partial.Coverage)
	}
	return NewApp(AppConfig{
		Plan:             sc.Plan,
		Verify:           sc.Costs.V,
		Sizes:            sizes,
		Faults:           fp,
		Tier:             tier,
		Recorder:         NewMeterRecorder(sc.Model),
		Detector:         sc.Detector,
		Trace:            sc.Trace,
		Obs:              sc.Obs,
		SkipVerification: sc.SkipVerification,
		Partial:          sc.Partial,
		Sampled:          sampled,
	}, sc.NewWorkload())
}
