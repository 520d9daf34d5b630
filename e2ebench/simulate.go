package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"respeed/internal/engine"
	"respeed/internal/platform"
	"respeed/internal/serve"
	"respeed/internal/spec"
)

// The simulate workload: one closed-loop client POSTs a large-state
// scenario document to /v1/simulate — the cluster-twolevel composition
// re-targeted to a 16×16 heat2d kernel with short patterns, so
// verification digests and state serialization are a large share of
// every App run. Configurations are cycled and every seed is fresh, so
// every request misses the cache; one client is enough because each
// request already fans out over GOMAXPROCS executor workers.

const (
	simN       = 8 // replications per request: the estimate's stated accuracy
	simWarmOps = 24
	simSample  = 8  // every simSample-th op is re-derived after the window
	simReplay  = 16 // a traced run replays its first simReplay ops through each layer
)

// simulateSpec is the request document.
func simulateSpec() (spec.ScenarioSpec, error) {
	sp, ok := spec.ByName("cluster-twolevel")
	if !ok {
		return sp, fmt.Errorf("built-in spec cluster-twolevel is missing")
	}
	sp.Name = "bench-heat2d"
	sp.Plan.W = 5
	sp.Workload = &spec.WorkloadSpec{Kind: "heat2d", Size: 16, Alpha: 0.2}
	return sp, sp.Validate()
}

type simOp struct {
	k     int
	cfg   platform.Config
	seed  uint64
	reply serve.SpecReply
}

type simWL struct {
	b    *bench
	sp   spec.ScenarioSpec
	body []byte
	hash string
	cfgs []platform.Config
	rng  *rand.Rand

	mu  sync.Mutex
	rec []simOp // the sampled ops (and, traced, the first simReplay)
}

func newSimulate(b *bench) (*simWL, error) {
	sp, err := simulateSpec()
	if err != nil {
		return nil, err
	}
	body, err := spec.Canonical(sp)
	if err != nil {
		return nil, err
	}
	hash, err := spec.Hash(sp)
	if err != nil {
		return nil, err
	}
	return &simWL{b: b, sp: sp, body: body, hash: hash, cfgs: platform.Configs(),
		rng: rand.New(rand.NewPCG(b.seed, 0x73696d))}, nil
}

func (wl *simWL) clients() int { return 1 }

// ask posts the document for one (config, seed) and checks the reply's
// shape; the estimate itself is re-derived for sampled ops.
func (wl *simWL) ask(sys *system, cfg platform.Config, seed uint64) (serve.SpecReply, outcome) {
	q := url.Values{"config": {cfg.Name()}, "n": {strconv.Itoa(simN)}, "seed": {strconv.FormatUint(seed, 10)}}
	status, body, err := sys.post("/v1/simulate?"+q.Encode(), wl.body)
	var r serve.SpecReply
	if err != nil || status != http.StatusOK {
		return r, opFailed
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, opWrong
	}
	if r.Config != cfg.Name() || r.Spec != wl.sp.Name || r.SpecHash != wl.hash || r.N != simN ||
		r.Seed != seed || r.Partial || r.Estimate.Patterns != simN ||
		!(r.Estimate.Time.Mean > 0) || math.IsInf(r.Estimate.Time.Mean, 0) {
		return r, opWrong
	}
	return r, opOK
}

func (wl *simWL) warmup(sys *system) error {
	rng := rand.New(rand.NewPCG(wl.b.seed^0x5741524d, 0x73696d))
	for i := 0; i < simWarmOps; i++ {
		if _, o := wl.ask(sys, wl.cfgs[i%len(wl.cfgs)], rng.Uint64()); o != opOK {
			return fmt.Errorf("warm-up simulation %d failed", i)
		}
	}
	return nil
}

func (wl *simWL) op(sys *system, _, k int) outcome {
	cfg, seed := wl.cfgs[k%len(wl.cfgs)], wl.rng.Uint64()
	t0 := time.Now()
	r, o := wl.ask(sys, cfg, seed)
	t1 := time.Now()
	traced := wl.b.tr != nil && k < simReplay
	if traced {
		wl.b.tr.add(wl.b.tr.id(), 0, "0/"+strconv.Itoa(k), "simulate.op", t0, t1)
	}
	if o == opOK && (k%simSample == 0 || traced) {
		wl.mu.Lock()
		wl.rec = append(wl.rec, simOp{k: k, cfg: cfg, seed: seed, reply: r})
		wl.mu.Unlock()
	}
	return o
}

// sameJSON reports whether two values encode to identical bytes (for
// floats: bit-equal, since encoding/json round-trips them exactly).
func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

// verify re-derives every sampled answer with engine.ReplicateScenario
// and Scenario.Run on the compiled request body.
func (wl *simWL) verify() (int64, error) {
	var wrong int64
	for _, op := range wl.rec {
		if op.k%simSample != 0 {
			continue
		}
		sc, err := wl.sp.Compile(spec.EnvFor(op.cfg))
		if err != nil {
			return 0, err
		}
		est, err := engine.ReplicateScenario(sc, op.seed, simN, 0)
		if err != nil {
			return 0, err
		}
		rep, err := sc.Run(op.seed)
		if err != nil {
			return 0, err
		}
		if !sameJSON(est, op.reply.Estimate) || !sameJSON(rep, op.reply.Report) {
			wrong++
		}
	}
	return wrong, nil
}

func (wl *simWL) layers(sys *system, w window, before, after *snapshot) (map[string]metric, error) {
	tr := wl.b.tr
	ctx := context.Background()
	ctr := &engine.Counters{}
	probe := &appProbe{t: tr}
	var runs int64
	var prepare, run, par, seq time.Duration
	n := 0
	for _, op := range wl.rec {
		if op.k >= simReplay {
			continue
		}
		n++
		opID := "0/" + strconv.Itoa(op.k)
		var sc engine.Scenario
		var err error
		prepare += tr.timed(opID, "spec.prepare", func() {
			var sp spec.ScenarioSpec
			if sp, err = spec.Parse(wl.body); err != nil {
				return
			}
			if sc, err = sp.Compile(spec.EnvFor(op.cfg)); err != nil {
				return
			}
			_, err = spec.Hash(sp)
		})
		if err != nil {
			return nil, err
		}
		var rep engine.Report
		run += tr.timed(opID, "engine.run", func() { rep, err = sc.Run(op.seed) })
		if err != nil {
			return nil, err
		}
		var est, estSeq, estProbed engine.Estimate
		par += tr.timed(opID, "engine.replicate", func() {
			est, err = engine.ReplicateScenarioValidatedCtx(ctx, sc, op.seed, simN, 0)
		})
		if err != nil {
			return nil, err
		}
		seq += tr.timed(opID, "engine.replicate.seq", func() {
			estSeq, err = engine.ReplicateScenarioValidatedCtx(ctx, sc, op.seed, simN, 1)
		})
		if err != nil {
			return nil, err
		}
		probe.op, probe.parent = opID, tr.id()
		psc, err := probe.probed(sc, wl.sp, ctr)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		estProbed, err = engine.ReplicateScenarioValidatedCtx(ctx, psc, op.seed, simN, 1)
		tr.add(probe.parent, 0, opID, "engine.replicate.probed", t0, time.Now())
		if err != nil {
			return nil, err
		}
		runs += simN
		if !sameJSON(rep, op.reply.Report) || !sameJSON(est, op.reply.Estimate) ||
			!sameJSON(estSeq, est) || !sameJSON(estProbed, est) {
			return nil, fmt.Errorf("op %s: replayed estimates differ from the served answer", opID)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("no simulate op recorded for replay")
	}
	shares := tr.appShares("engine.replicate.probed")
	shares.runs, shares.stateBytes, shares.digestBytes = runs, probe.stateBytes.Load(), probe.digestBytes.Load()
	shares.counters = ctr.Snapshot()
	if shares.self < 0 {
		return nil, fmt.Errorf("App self time is negative")
	}

	m := emptyLayers()
	shares.metrics(m)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(n) }
	m["spec.prepare_us"] = metric{float64(prepare) / 1e3 / float64(n), "us"}
	m["engine.run_ms"] = metric{ms(run), "ms"}
	m["engine.replicate_ms"] = metric{ms(par), "ms"}
	m["engine.fanout_speedup"] = metric{float64(seq) / float64(par), "ratio"}
	m["trace.overhead_ratio"] = metric{float64(shares.total) / float64(seq), "ratio"}
	confirm("digests and state serialization are at least a third of App time",
		m["detect.vc_share"].Value >= 1.0/3)
	return m, nil
}
