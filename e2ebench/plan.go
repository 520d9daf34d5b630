package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"respeed/internal/core"
	"respeed/internal/platform"
	"respeed/internal/serve"
)

// The plan workload: two closed-loop clients GET /v1/solve (two-speed
// and single=1), /v1/sigma1-table and /v1/gain over the eight catalog
// configurations and seeded feasible ρ ∈ [1.2, 8]. The key universe is
// 1.5× the server's default 4096-entry LRU, so about two thirds of the
// requests hit and the rest compute, insert and evict. The solver is a
// few microseconds, so this is where serve's own cost shows.

const (
	planClients     = 2
	planRhosPerCfg  = 192 // 4 shapes × 8 configs × 192 ρ = 6144 keys = 1.5 × the default 4096-entry LRU
	planWarmOps     = 12000
	planReplayWarm  = 10000 // recorded ops replayed untimed to fill the replay server's LRU
	planReplayTimed = 20000
)

// planShapes is the number of query shapes of a key: solve,
// solve single=1, sigma1-table and gain.
const planShapes = 4

type planKey struct {
	ep     int
	cfg    platform.Config
	rho    float64
	path   string
	expect uint64 // FNV-64a of the reference answer's exact bytes
}

type planWL struct {
	b     *bench
	keys  []planKey
	paper int // (solve, Hera/XScale, ρ=3)

	rngs []*rand.Rand // per client, for the window's ops

	// Traced runs record the window's first ops: key, span, round trip.
	mu  sync.Mutex
	rec []planOp
}

type planOp struct {
	key       int
	end       time.Time
	roundTrip time.Duration
}

func newPlan(b *bench) (*planWL, error) {
	wl := &planWL{b: b, paper: -1}
	rng := rand.New(rand.NewPCG(b.seed, 0x706c616e))
	for _, cfg := range platform.Configs() {
		p := core.FromConfig(cfg)
		speeds := cfg.Processor.Speeds
		seen := map[float64]bool{}
		var rhos []float64
		if cfg.Name() == "Hera/XScale" {
			rhos, seen[3] = append(rhos, 3), true
		}
		for len(rhos) < planRhosPerCfg {
			rho := math.Round((1.2+6.8*rng.Float64())*1000) / 1000
			if seen[rho] {
				continue
			}
			if _, err := p.Solve(speeds, rho); err != nil {
				continue
			}
			if _, err := p.SolveSingleSpeed(speeds, rho); err != nil {
				continue
			}
			seen[rho] = true
			rhos = append(rhos, rho)
		}
		for _, rho := range rhos {
			for ep := 0; ep < planShapes; ep++ {
				k, err := planReference(ep, cfg, rho)
				if err != nil {
					return nil, err
				}
				if ep == 0 && rho == 3 && cfg.Name() == "Hera/XScale" {
					wl.paper = len(wl.keys)
				}
				wl.keys = append(wl.keys, k)
			}
		}
	}
	if err := checkPaperPoint(); err != nil {
		return nil, err
	}
	for c := 0; c < planClients; c++ {
		wl.rngs = append(wl.rngs, rand.New(rand.NewPCG(b.seed, uint64(c))))
	}
	return wl, nil
}

// checkPaperPoint confirms that the reference solver reproduces the
// paper's worked example: Hera/XScale at ρ=3 gives σ1=σ2=0.4,
// W≈2764.3 and E/W≈416.8.
func checkPaperPoint() error {
	cfg, ok := platform.ByName("Hera/XScale")
	if !ok {
		return errors.New("Hera/XScale missing from the catalog")
	}
	sol, err := core.FromConfig(cfg).Solve(cfg.Processor.Speeds, 3)
	if err != nil {
		return err
	}
	b := sol.Best
	if b.Sigma1 != 0.4 || b.Sigma2 != 0.4 || math.Abs(b.W-2764.3) > 0.05 || math.Abs(b.EnergyOverhead-416.8) > 0.05 {
		return fmt.Errorf("reference solver misses the paper's point: %+v", b)
	}
	return nil
}

// planReference builds a key and its expected answer from the non-grid
// core.Params solver, encoded exactly as the server encodes replies.
func planReference(ep int, cfg platform.Config, rho float64) (planKey, error) {
	k := planKey{ep: ep, cfg: cfg, rho: rho}
	p := core.FromConfig(cfg)
	speeds := cfg.Processor.Speeds
	q := url.Values{"config": {cfg.Name()}, "rho": {strconv.FormatFloat(rho, 'g', -1, 64)}}
	var raw any
	var err error
	switch ep {
	case 0:
		k.path = "/v1/solve?"
		raw, err = p.Solve(speeds, rho)
	case 1:
		k.path = "/v1/solve?"
		q.Set("single", "1")
		raw, err = p.SolveSingleSpeed(speeds, rho)
	case 2:
		k.path = "/v1/sigma1-table?"
		raw = p.Sigma1Table(speeds, rho)
	default:
		k.path = "/v1/gain?"
		raw, err = p.TwoSpeedGain(speeds, rho)
	}
	if err != nil {
		return planKey{}, err
	}
	k.path += q.Encode()
	body, err := json.Marshal(replyOf(k, raw))
	if err != nil {
		return planKey{}, err
	}
	k.expect = fnv64(append(body, '\n'))
	return k, nil
}

// sigma1Reply is the /v1/sigma1-table answer shape: infeasible rows
// carry a null Sigma2.
func sigma1Reply(cfg platform.Config, rho float64, rows []core.PairResult) serve.Sigma1TableReply {
	out := serve.Sigma1TableReply{Config: cfg.Name(), Rho: rho, Speeds: cfg.Processor.Speeds,
		Rows: make([]serve.Sigma1Row, len(rows))}
	for i, r := range rows {
		jr := serve.Sigma1Row{Sigma1: r.Sigma1, RhoMin: r.RhoMin, Feasible: r.Feasible,
			W: r.W, TimeOverhead: r.TimeOverhead, EnergyOverhead: r.EnergyOverhead}
		if !math.IsNaN(r.Sigma2) {
			s2 := r.Sigma2
			jr.Sigma2 = &s2
		}
		out.Rows[i] = jr
	}
	return out
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (wl *planWL) clients() int { return planClients }

// ask issues one query and checks its bytes against the reference.
func (wl *planWL) ask(sys *system, key int) (outcome, time.Duration) {
	k := wl.keys[key]
	t0 := time.Now()
	status, body, err := sys.get(k.path)
	rt := time.Since(t0)
	switch {
	case err != nil || status != http.StatusOK:
		return opFailed, rt
	case fnv64(body) != k.expect:
		return opWrong, rt
	}
	return opOK, rt
}

func (wl *planWL) warmup(sys *system) error {
	errc := make(chan error, planClients)
	for c := 0; c < planClients; c++ {
		go func(c int) {
			rng := rand.New(rand.NewPCG(wl.b.seed^0x5741524d, uint64(c)))
			for i := 0; i < planWarmOps/planClients; i++ {
				key := rng.IntN(len(wl.keys))
				if c == 0 && i == 0 {
					key = wl.paper
				}
				if o, _ := wl.ask(sys, key); o != opOK {
					errc <- fmt.Errorf("%s answered wrongly or failed", wl.keys[key].path)
					return
				}
			}
			errc <- nil
		}(c)
	}
	var errs []error
	for c := 0; c < planClients; c++ {
		errs = append(errs, <-errc)
	}
	return errors.Join(errs...)
}

func (wl *planWL) op(sys *system, c, k int) outcome {
	key := wl.rngs[c].IntN(len(wl.keys))
	if c == 0 && k == 0 {
		key = wl.paper // the paper's worked example is asked in every run
	}
	if wl.b.tr == nil {
		o, _ := wl.ask(sys, key)
		return o
	}
	t0 := time.Now()
	o, rt := wl.ask(sys, key)
	t1 := time.Now()
	wl.mu.Lock()
	defer wl.mu.Unlock()
	if o == opOK && len(wl.rec) < planReplayWarm+planReplayTimed {
		// Only the ops the replay will use are recorded.
		wl.b.tr.add(wl.b.tr.id(), 0, strconv.Itoa(c)+"/"+strconv.Itoa(k), "plan.op", t0, t1)
		wl.rec = append(wl.rec, planOp{key: key, end: t1, roundTrip: rt})
	}
	return o
}

// verify: every plan answer was compared byte for byte in op.
func (wl *planWL) verify() (int64, error) { return 0, nil }

// replayHandler replays the recorded ops in completion order through
// Handler().ServeHTTP of two fresh servers with no network, in
// lockstep: one timed plainly, one recording a span per call (which
// goes first alternates). The first ops only fill the LRUs. It returns
// the per-op handler times of both servers and which ops hit the cache,
// read from the plain server's own hit count around each call.
func (wl *planWL) replayHandler(ops []planOp) (plain, traced []time.Duration, hits []bool, err error) {
	srvs := [2]*serve.Server{serve.New(serve.Options{}), serve.New(serve.Options{})}
	hs := [2]http.Handler{srvs[0].Handler(), srvs[1].Handler()}
	nWarm := min(planReplayWarm, len(ops)/2)
	served := cacheHits(srvs[0])
	for i, op := range ops {
		if i >= nWarm+planReplayTimed {
			break
		}
		k := wl.keys[op.key]
		var dt [2]time.Duration
		for j := 0; j < 2; j++ {
			s := (i + j) % 2
			req := httptest.NewRequest(http.MethodGet, k.path, nil)
			rec := httptest.NewRecorder()
			t0 := time.Now()
			hs[s].ServeHTTP(rec, req)
			t1 := time.Now()
			if s == 1 && i >= nWarm {
				wl.b.tr.add(wl.b.tr.id(), 0, "replay/"+strconv.Itoa(i), "serve.handler", t0, t1)
			}
			dt[s] = t1.Sub(t0)
			if rec.Code != http.StatusOK || fnv64(rec.Body.Bytes()) != k.expect {
				return nil, nil, nil, fmt.Errorf("replayed %s answered %d with other bytes", k.path, rec.Code)
			}
		}
		now := cacheHits(srvs[0])
		if i >= nWarm {
			plain = append(plain, dt[0])
			traced = append(traced, dt[1])
			hits = append(hits, now > served)
		}
		served = now
	}
	return plain, traced, hits, nil
}

// cacheHits totals a server's response-cache hits over its endpoints.
func cacheHits(srv *serve.Server) int64 {
	var n int64
	for _, e := range srv.Metrics().Endpoints {
		n += e.CacheHits
	}
	return n
}

func (wl *planWL) layers(sys *system, w window, before, after *snapshot) (map[string]metric, error) {
	tr := wl.b.tr
	ops := wl.rec
	sort.Slice(ops, func(i, j int) bool { return ops[i].end.Before(ops[j].end) })
	if len(ops) < 100 {
		return nil, fmt.Errorf("too few plan ops recorded (%d)", len(ops))
	}

	// The same inputs replayed untraced and traced: the ratio is the
	// tracing overhead on the handler.
	plain, handler, hits, err := wl.replayHandler(ops)
	if err != nil {
		return nil, err
	}
	nWarm := min(planReplayWarm, len(ops)/2)

	// Children of each miss, replayed through the public functions the
	// handler calls: the memoized grid call and the reply encoding, plus
	// a solve on a freshly built grid.
	var handlerSum, plainSum time.Duration
	var misses int
	for i := range handler {
		handlerSum += handler[i]
		plainSum += plain[i]
		if hits[i] {
			continue
		}
		misses++
		op := "replay/" + strconv.Itoa(nWarm+i)
		k := wl.keys[ops[nWarm+i].key]
		var raw any
		var rerr error
		tr.timed(op, "core.solve", func() { _, rerr = solveOn(k, false) })
		if rerr != nil {
			return nil, rerr
		}
		tr.timed(op, "core.memo", func() { raw, rerr = solveOn(k, true) })
		if rerr != nil {
			return nil, rerr
		}
		reply := replyOf(k, raw)
		var body []byte
		tr.timed(op, "serve.encode", func() {
			body, rerr = json.Marshal(reply)
			body = append(body, '\n')
		})
		if rerr != nil {
			return nil, rerr
		}
		if fnv64(body) != k.expect {
			return nil, fmt.Errorf("replayed solve of %s differs from the reference", k.path)
		}
	}
	memoSum := tr.total("core.memo")
	encodeSum := tr.total("serve.encode")
	solveSum := tr.total("core.solve")

	n := float64(len(handler))
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	perCall := func(d time.Duration, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return us(d) / float64(calls)
	}
	var rtSum time.Duration
	for _, op := range ops {
		rtSum += op.roundTrip
	}
	roundTrip := us(rtSum) / float64(len(ops))
	handlerUS := us(handlerSum) / n
	selfUS := us(handlerSum-memoSum-encodeSum) / n
	encodeUS := us(encodeSum) / n
	transportUS := roundTrip - handlerUS

	m := emptyLayers()
	m["serve.handler_us"] = metric{handlerUS, "us"}
	m["serve.self_us"] = metric{selfUS, "us"}
	m["serve.encode_us"] = metric{encodeUS, "us"}
	m["serve.transport_us"] = metric{transportUS, "us"}
	m["serve.request_share"] = metric{(selfUS + encodeUS + transportUS) / roundTrip, "ratio"}
	m["core.solve_us"] = metric{perCall(solveSum, misses), "us"}
	m["core.memo_us"] = metric{perCall(memoSum, misses), "us"}
	m["trace.overhead_ratio"] = metric{float64(handlerSum) / float64(plainSum), "ratio"}

	hitsD := delta(before, after, "respeed_http_cache_hits_total")
	missD := delta(before, after, "respeed_http_cache_misses_total")
	reqD := delta(before, after, "respeed_http_requests_total")
	if hitsD+missD > 0 {
		m["serve.cache_hit_ratio"] = metric{hitsD / (hitsD + missD), "ratio"}
	}
	m["serve.cache_evictions"] = metric{delta(before, after, "respeed_cache_evictions_total"), "count"}
	if reqD > 0 {
		m["admit.shed_ratio"] = metric{delta(before, after, "respeed_admit_shed_total") / reqD, "ratio"}
	}
	if selfUS < 0 {
		return nil, fmt.Errorf("serve self time is negative (%.3f us)", selfUS)
	}
	confirm("serve self time, encode and transport are at least half of a plan request",
		m["serve.request_share"].Value >= 0.5)
	return m, nil
}

// solveOn runs a key's computation on a fresh grid or on the
// process-wide memoized grid, exactly as the handler calls it.
func solveOn(k planKey, memo bool) (any, error) {
	p := core.FromConfig(k.cfg)
	speeds := k.cfg.Processor.Speeds
	var g *core.PairGrid
	var err error
	if memo {
		g, err = core.GridFor(p, speeds)
	} else {
		g, err = core.NewPairGrid(p, speeds)
	}
	if err != nil {
		return nil, err
	}
	switch k.ep {
	case 0:
		return g.Solve(k.rho)
	case 1:
		return g.SolveSingleSpeed(k.rho)
	case 2:
		return g.Sigma1Table(k.rho), nil
	default:
		return g.TwoSpeedGain(k.rho)
	}
}

// replyOf wraps a solver result in the reply the handler encodes.
func replyOf(k planKey, raw any) any {
	speeds := k.cfg.Processor.Speeds
	switch k.ep {
	case 0, 1:
		return serve.SolveReply{Config: k.cfg.Name(), Rho: k.rho, Speeds: speeds, Single: k.ep == 1, Solution: raw.(core.Solution)}
	case 2:
		return sigma1Reply(k.cfg, k.rho, raw.([]core.PairResult))
	default:
		return serve.GainReply{Config: k.cfg.Name(), Rho: k.rho, Gain: raw.(float64)}
	}
}
