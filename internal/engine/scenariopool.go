package engine

import (
	"fmt"
	"sync"

	"respeed/internal/detect"
	"respeed/internal/energy"
	"respeed/internal/rngx"
)

// This file is the one place a Scenario run is assembled: Run, RunOn
// and every replication build a campaign (the pieces shared by all of
// its runs, including the clean reference trajectory every run
// verifies against and, when it stores states, replays instead of
// stepping; the process steps it once per workload and pattern
// sequence, and checks it against a second clone of the prototype
// before any run reads it), take a scratch of per-run pieces from a
// sync.Pool, and reset each component in place to the exact state a
// fresh construction would have: every fault process, renewal channels
// included, reseeds its streams in place. Building the whole App fresh
// per run — workload pair, fault process, checkpoint tier, meter,
// verifier — costs ~2.4k allocations per 50-run estimate. The
// executions are bit-identical to that fresh construction, which the
// tests keep as their reference and replay against the pooled runs,
// reports compared byte for byte.

// scenarioCampaign is the shared context of a pooled scenario call:
// the validated scenario (trace hooks already cleared), its precomputed
// pattern sizes, a pristine prototype workload with its witness, and
// the clean reference trajectory every run verifies against. It is
// read-only once built and shared across worker goroutines; the
// garbage collector reclaims it, so nothing needs releasing.
type scenarioCampaign struct {
	sc    Scenario
	sizes []float64

	// proto is one never-advanced product of sc.NewWorkload; runs clone
	// it instead of re-invoking the factory (the factory contract is a
	// deterministic fresh construction, so the clones are identical). wl
	// is its witness, whose state every run restores.
	proto *Runner
	wl    workloadID

	// ref is the clean trajectory (nil for blind and partial campaigns,
	// which do not use it): from referenceMemo when proto has a witness,
	// stepped for this campaign alone otherwise.
	ref *reference
}

// newScenarioCampaign builds the shared context on the calling
// goroutine, reference trajectory included. sc must already be
// validated; its runs record into sc.Trace and sc.Obs.TraceSink, which
// a fan-out must clear first.
func newScenarioCampaign(sc Scenario) (*scenarioCampaign, error) {
	proto := sc.NewWorkload()
	if proto == nil {
		return nil, fmt.Errorf("engine: nil workload")
	}
	c := &scenarioCampaign{
		sc:    sc,
		sizes: sc.patternSizes(),
		proto: proto,
		wl:    proto.identity(),
	}
	if !sc.SkipVerification && sc.Partial == nil {
		var err error
		if c.ref, err = c.reference(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// reference returns the campaign's clean trajectory: the one
// referenceMemo holds for its key, or one stepped on a clone of the
// prototype and checked against a second clone (buildReference). Both
// are fresh: a scratch's cached workload is a clone of an earlier
// prototype, and the check would not see clones that share memory with
// this one. Only a witnessed workload is memoized, and only once its
// check passed; a fingerprint-less one (a NewRunner fake) gets a
// trajectory of its own on every call.
func (c *scenarioCampaign) reference() (*reference, error) {
	det := detect.OrDefault(c.sc.Detector)
	var h uint64
	if c.wl.ok {
		h = memoHash(&c.wl, c.sizes)
		if r := lookupReference(h, &c.wl, c.sizes, det); r != nil {
			return r, nil
		}
	}
	r, err := buildReference(c.proto.Clone(), c.proto.Clone(), c.sizes, det)
	if err != nil {
		return nil, err
	}
	if c.wl.ok {
		r = storeReference(h, &c.wl, c.sizes, det, r)
	}
	return r, nil
}

// scenarioScratch is the pooled per-chunk working set of scenario
// runs: every per-run component of an App, reset in place between
// runs. One scratch serves one chunk (or one single run) at a time; the
// pool hands it to the next afterwards.
type scenarioScratch struct {
	execRNG    rngx.Stream
	sampledRNG rngx.Stream
	agg        AggregateFaults
	perNode    PerNodeFaults
	renewal    RenewalFaults
	meter      energy.Meter
	rec        MeterRecorder
	verifier   detect.Verifier
	sampled    detect.SampledVerifier
	single     SingleLevel
	two        TwoLevel
	app        App

	// The cached workload (and, for partial campaigns, its clean
	// replica), with the witness of what it is: reusable only by a
	// campaign whose prototype has the same witness. Workloads whose
	// kernels expose no fingerprint have none, and are rebuilt per chunk.
	main, replica *Runner
	wl            workloadID
}

var scenarioScratchPool = sync.Pool{New: func() any { return new(scenarioScratch) }}

// getScratch takes a scratch from the pool, prepared for c.
func getScratch(c *scenarioCampaign) *scenarioScratch {
	s := scenarioScratchPool.Get().(*scenarioScratch)
	s.prepare(c)
	return s
}

// putScratch returns s to the pool without what its last run borrowed
// from the caller: the trace recorder and sink, RunOn's stream, the
// node list, the renewal description with its distributions and trace
// times, and the campaign's reference, which a pooled scratch must not
// keep alive.
func putScratch(s *scenarioScratch) {
	s.app = App{corruptBuf: s.app.corruptBuf}
	s.agg.rng = nil
	s.perNode.nodes = nil
	s.renewal.release()
	scenarioScratchPool.Put(s)
}

// prepare points the scratch at a campaign: wire the internal
// references that survive pooling and establish the workload (plus the
// replica a partial campaign needs).
func (s *scenarioScratch) prepare(c *scenarioCampaign) {
	s.rec.meter = &s.meter
	if !s.wl.same(&c.wl) {
		s.main = c.proto.Clone()
		s.replica = nil
		s.wl = workloadID{name: c.wl.name, fp: c.wl.fp, state: append(s.wl.state[:0], c.wl.state...), ok: c.wl.ok}
	}
	if c.sc.Partial != nil && s.replica == nil {
		s.replica = c.proto.Clone()
	}
}

// runName names the streams of one run: base, or base+decimal(index)
// when index ≥ 0 ("scenario" for a single Run, "scenario/<i>" for
// replication i). exec, when set, is RunOn's stream, named base: the
// aggregate faults draw from it instead of from "<name>/exec".
type runName struct {
	base  string
	index int
	exec  *rngx.Stream
}

// replication names replication i of a campaign: "scenario/<i>/…".
func replication(i int) runName { return runName{base: "scenario/", index: i} }

// reseed derives st in place as rngx.NewStream(seed, name+suffix) would
// for the materialized name; an indexed name is hashed from its parts,
// never built, so no fault process builds a string per replication.
func (n runName) reseed(st *rngx.Stream, seed uint64, suffix string) {
	if n.index < 0 {
		st.Reseed(seed, n.base+suffix)
		return
	}
	st.ReseedIndexedSuffix(seed, n.base, n.index, suffix)
}

// runReport executes one run for a report that leaves the engine (Run
// and RunOn): runOnce's report with the per-node error counts attached.
func (s *scenarioScratch) runReport(c *scenarioCampaign, seed uint64, name runName) (Report, error) {
	rep, err := s.runOnce(c, seed, name)
	rep.PerNodeErrors = s.app.perNodeErrors()
	return rep, err
}

// runOnce executes one run of the campaign under name's streams,
// bit-identically to a fresh App built by NewApp for the same run,
// except that the report leaves out the per-node error counts.
func (s *scenarioScratch) runOnce(c *scenarioCampaign, seed uint64, name runName) (Report, error) {
	sc := &c.sc

	// The fault process and the partial-verification position stream,
	// under the historical stream names.
	var fp FaultProcess
	positions := "/partial-positions"
	switch {
	case sc.Renewal != nil:
		s.renewal.reset(sc.Renewal, seed, name)
		fp = &s.renewal
	case len(sc.Nodes) > 0:
		s.perNode.reset(sc.Nodes, seed, name)
		fp = &s.perNode
	default:
		exec := name.exec
		if exec == nil {
			name.reseed(&s.execRNG, seed, "/exec")
			exec = &s.execRNG
			// The historical exec.Child("partial-positions"), which
			// consumes no exec stream state.
			positions = "/exec/partial-positions"
		}
		s.agg = AggregateFaults{lambdaS: sc.Costs.LambdaS, lambdaF: sc.Costs.LambdaF, rng: exec}
		fp = &s.agg
	}

	var tier Tier
	if sc.TwoLevel != nil {
		s.two.reset(*sc.TwoLevel, sc.Costs.R, int(sc.TotalWork/sc.Plan.W))
		tier = &s.two
	} else {
		s.single.reset(sc.Costs.C, sc.Costs.R)
		tier = &s.single
	}

	var sampled *detect.SampledVerifier
	var replica *Runner
	if sc.Partial != nil {
		name.reseed(&s.sampledRNG, seed, positions)
		s.sampled.Reset(sc.Detector, &s.sampledRNG, sc.Partial.Coverage)
		sampled = &s.sampled
		replica = s.replica
		if err := replica.restore(c.wl.state); err != nil {
			return Report{}, fmt.Errorf("engine: reset replica: %w", err)
		}
	}

	s.rec.clock = 0
	s.meter.Reinit(sc.Model)
	s.verifier.Reset(sc.Detector)
	if err := s.main.restore(c.wl.state); err != nil {
		return Report{}, fmt.Errorf("engine: reset workload: %w", err)
	}

	// Assemble the App by assignment — the configuration is the one
	// NewApp would build, already validated with the scenario — but keep
	// the corruption scratch buffer across runs.
	s.app = App{
		cfg: AppConfig{
			Plan:             sc.Plan,
			Verify:           sc.Costs.V,
			Sizes:            c.sizes,
			Faults:           fp,
			Tier:             tier,
			Recorder:         &s.rec,
			Detector:         sc.Detector,
			Trace:            sc.Trace,
			Obs:              sc.Obs,
			SkipVerification: sc.SkipVerification,
			Partial:          sc.Partial,
			Sampled:          sampled,
		},
		main:       s.main,
		ref:        c.ref,
		replica:    replica,
		verifier:   &s.verifier,
		rec:        &s.rec,
		corruptBuf: s.app.corruptBuf,
	}
	return s.app.run()
}
