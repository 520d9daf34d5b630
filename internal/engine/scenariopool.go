package engine

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"

	"respeed/internal/detect"
	"respeed/internal/energy"
	"respeed/internal/rngx"
)

// This file is the pooled form of the scenario replication hot path.
// Historically every replication of ReplicateScenario rebuilt the whole
// App — workload pair, fault injector, checkpoint tier, meter, verifier
// — from scratch (~2.4k allocations per 50-run estimate). The pooled
// path builds the campaign-wide pieces once per call (including the
// clean reference trajectory every run verifies against), keeps the per-run
// pieces in a scratch recycled through a sync.Pool, and resets each
// component in place to the exact state a fresh construction would
// have, so the executions stay bit-identical to Scenario.runSized runs
// (the equivalence tests replay both and compare reports byte for
// byte).

// scenarioCampaign is the per-call shared context of a pooled scenario
// replication: the validated scenario (trace hooks already cleared),
// its precomputed pattern sizes, a pristine prototype workload with its
// serialized initial state, and the clean reference trajectory every
// run verifies against. All fields are read-only from construction to
// release and shared across worker goroutines.
type scenarioCampaign struct {
	sc    Scenario
	sizes []float64

	// proto is one never-advanced product of sc.NewWorkload; runs clone
	// it instead of re-invoking the factory (the factory contract is a
	// deterministic fresh construction, so the clones are identical).
	proto     *Runner
	initState []byte

	// ref[k] digests the clean state after sizes[0..k] (nil for blind
	// and partial campaigns, which do not use it). It lives in refBuf,
	// borrowed from refPool by buildRef until release.
	ref    []detect.Digest
	refBuf *[]detect.Digest
}

// newScenarioCampaign builds the shared context on the calling
// goroutine, reference trajectory included. sc must already be
// validated, with Trace and Obs.TraceSink cleared. The caller owns the
// context until it calls release, which it must defer past the end of
// the fan-out: every worker reads the reference.
func newScenarioCampaign(sc Scenario) (*scenarioCampaign, error) {
	proto := sc.NewWorkload()
	if proto == nil {
		return nil, fmt.Errorf("engine: nil workload")
	}
	c := &scenarioCampaign{
		sc:        sc,
		sizes:     sc.patternSizes(),
		proto:     proto,
		initState: append([]byte(nil), proto.state()...),
	}
	if err := c.buildRef(); err != nil {
		return nil, err
	}
	return c, nil
}

// refPool recycles reference-trajectory buffers across calls.
var refPool = sync.Pool{New: func() any { return new([]detect.Digest) }}

// buildRef computes the campaign's reference trajectory into a pooled
// buffer, stepping a pooled scratch workload from the initial state.
func (c *scenarioCampaign) buildRef() error {
	if c.sc.SkipVerification || c.sc.Partial != nil {
		return nil
	}
	s := scenarioScratchPool.Get().(*scenarioScratch)
	defer scenarioScratchPool.Put(s)
	s.prepare(c)
	if err := s.main.restore(c.initState); err != nil {
		return fmt.Errorf("engine: reset reference workload: %w", err)
	}
	s.verifier.Reset(c.sc.Detector) // resolves a nil detector to FNV-64a
	c.refBuf = refPool.Get().(*[]detect.Digest)
	*c.refBuf = referenceDigests(*c.refBuf, s.main, c.sizes, s.verifier.Detector())
	c.ref = *c.refBuf
	return nil
}

// release returns the reference buffer to the pool; no run may read
// c.ref afterwards.
func (c *scenarioCampaign) release() {
	if c.refBuf != nil {
		refPool.Put(c.refBuf)
		c.ref, c.refBuf = nil, nil
	}
}

// scenarioScratch is the pooled per-chunk working set of scenario
// replication: every per-run component of an App, reset in place
// between runs. One scratch serves one chunk at a time; the pool hands
// it to the next chunk afterwards.
type scenarioScratch struct {
	execRNG    rngx.Stream
	sampledRNG rngx.Stream
	agg        AggregateFaults
	meter      energy.Meter
	rec        MeterRecorder
	verifier   detect.Verifier
	sampled    detect.SampledVerifier
	single     SingleLevel
	two        TwoLevel
	app        App

	// The cached workload (and, for partial campaigns, its clean
	// replica), with the witness identifying what it is: reusable only
	// when the campaign's prototype has a matching name, constructor
	// fingerprint and initial state. Workloads whose kernels expose no
	// fingerprint are rebuilt per chunk — names and snapshots alone
	// cannot prove interchangeability (Heat's diffusion coefficient
	// appears in neither).
	main, replica *Runner
	wlName        string
	wlFP          uint64
	wlState       []byte
	haveWL        bool
}

var scenarioScratchPool = sync.Pool{New: func() any { return new(scenarioScratch) }}

// prepare points the scratch at a campaign: wire the internal
// references that survive pooling and establish the workload (plus the
// replica a partial campaign needs).
func (s *scenarioScratch) prepare(c *scenarioCampaign) {
	s.rec.meter = &s.meter
	if !(s.haveWL &&
		c.proto.hasFP && s.wlFP == c.proto.fp &&
		s.wlName == c.proto.name &&
		bytes.Equal(s.wlState, c.initState)) {
		s.main = c.proto.Clone()
		s.replica = nil
		s.wlName = c.proto.name
		s.wlFP = c.proto.fp
		s.wlState = append(s.wlState[:0], c.initState...)
		s.haveWL = c.proto.hasFP
	}
	if c.sc.Partial != nil && s.replica == nil {
		s.replica = c.proto.Clone()
	}
}

// runOnce executes replication i of the campaign, bit-identically to
// sc.runSized(seed, "scenario/<i>", sizes) on a fresh App.
func (s *scenarioScratch) runOnce(c *scenarioCampaign, seed uint64, i int) (Report, error) {
	sc := &c.sc

	// Fault process and partial-verification position stream, under the
	// historical stream names. The aggregate path derives both with the
	// no-materialize indexed-suffix hash; the factory and per-node paths
	// need the prefix string itself.
	var fp FaultProcess
	var sampledSrc interface{ Intn(int) int }
	switch {
	case sc.Faults != nil:
		prefix := "scenario/" + strconv.Itoa(i)
		p, err := sc.Faults(seed, prefix)
		if err != nil {
			return Report{}, err
		}
		fp = p
		if sc.Partial != nil {
			s.sampledRNG.Reseed(seed, prefix+"/partial-positions")
			sampledSrc = &s.sampledRNG
		}
	case len(sc.Nodes) > 0:
		prefix := "scenario/" + strconv.Itoa(i)
		pn, err := NewPerNodeFaults(sc.Nodes, seed, prefix)
		if err != nil {
			return Report{}, err
		}
		fp = pn
		if sc.Partial != nil {
			s.sampledRNG.Reseed(seed, prefix+"/partial-positions")
			sampledSrc = &s.sampledRNG
		}
	default:
		s.execRNG.ReseedIndexedSuffix(seed, "scenario/", i, "/exec")
		s.agg = AggregateFaults{lambdaS: sc.Costs.LambdaS, lambdaF: sc.Costs.LambdaF, rng: &s.execRNG}
		fp = &s.agg
		if sc.Partial != nil {
			// The historical Child("partial-positions") derivation:
			// "scenario/<i>/exec/partial-positions", consuming no exec
			// stream state.
			s.sampledRNG.ReseedIndexedSuffix(seed, "scenario/", i, "/exec/partial-positions")
			sampledSrc = &s.sampledRNG
		}
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
	if sc.Partial != nil {
		s.sampled.Reset(sc.Detector, sampledSrc, sc.Partial.Coverage)
		sampled = &s.sampled
	}

	s.rec.clock = 0
	s.meter.Reinit(sc.Model)
	s.verifier.Reset(sc.Detector)
	if err := s.main.restore(c.initState); err != nil {
		return Report{}, fmt.Errorf("engine: reset workload: %w", err)
	}
	var replica *Runner
	if sc.Partial != nil {
		replica = s.replica
		if err := replica.restore(c.initState); err != nil {
			return Report{}, fmt.Errorf("engine: reset replica: %w", err)
		}
	}

	// Assemble the App by assignment — the configuration is the one
	// NewApp would build, already validated at the campaign level — but
	// keep the corruption scratch buffer across runs.
	corruptBuf := s.app.corruptBuf
	s.app = App{
		cfg: AppConfig{
			Plan:             sc.Plan,
			Verify:           sc.Costs.V,
			Sizes:            c.sizes,
			Faults:           fp,
			Tier:             tier,
			Recorder:         &s.rec,
			Detector:         sc.Detector,
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
		corruptBuf: corruptBuf,
	}
	return s.app.Run()
}
