package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"respeed/internal/engine"
	"respeed/internal/fleet"
	"respeed/internal/jobs"
	"respeed/internal/platform"
	"respeed/internal/spec"
)

// The campaign workload: one closed-loop client submits a spec campaign
// to the coordinator daemon — the built-in cluster-twolevel document
// (stream kernel, 40-byte state) on one configuration — waits for
// "done" on the job's SSE stream, then fetches the result and checks
// its hash. N is chosen so that each of the campaign's shards carries
// one replication; every shard crosses fleet HTTP to one of the two
// workers and is journaled with an fsync, so per-shard orchestration is
// a large share of the time to hash.

const (
	campN       = 16 // replications per campaign = shards per campaign (engine.ChunkCount(16))
	campConfig  = "Hera/XScale"
	campWarmOps = 24
	campSample  = 8  // every campSample-th campaign is re-run on a local manager after the window
	campReplay  = 16 // a traced run replays the shards of its first campReplay campaigns
)

type campOp struct {
	k     int
	camp  jobs.Campaign
	id    string
	hash  string
	start time.Time
	end   time.Time
}

type campWL struct {
	b   *bench
	sp  spec.ScenarioSpec
	cfg platform.Config
	rng *rand.Rand

	mu  sync.Mutex
	rec []campOp
}

func newCampaign(b *bench) (*campWL, error) {
	sp, ok := spec.ByName("cluster-twolevel")
	if !ok {
		return nil, fmt.Errorf("built-in spec cluster-twolevel is missing")
	}
	cfg, ok := platform.ByName(campConfig)
	if !ok {
		return nil, fmt.Errorf("config %s is missing", campConfig)
	}
	return &campWL{b: b, sp: sp, cfg: cfg, rng: rand.New(rand.NewPCG(b.seed, 0x63616d70))}, nil
}

func (wl *campWL) clients() int { return 1 }

func (wl *campWL) campaign(seed uint64) jobs.Campaign {
	sp := wl.sp
	return jobs.Campaign{Kind: jobs.KindSpec, Configs: []string{campConfig}, N: campN, Seed: seed, Spec: &sp}
}

// ask submits a campaign, waits for its terminal event on the SSE
// stream, fetches the result and checks it.
func (wl *campWL) ask(sys *system, camp jobs.Campaign) (id, hash string, o outcome) {
	body, err := json.Marshal(camp)
	if err != nil {
		return "", "", opFailed
	}
	status, out, err := sys.post("/v1/jobs", body)
	if err != nil || status != http.StatusAccepted {
		return "", "", opFailed
	}
	var st jobs.Status
	if err := json.Unmarshal(out, &st); err != nil || st.ID == "" {
		return "", "", opWrong
	}
	state, err := wl.waitDone(sys, st.ID)
	if err != nil || state != jobs.StateDone {
		return st.ID, "", opFailed
	}
	status, out, err = sys.get("/v1/jobs/" + st.ID + "/result")
	if err != nil || status != http.StatusOK {
		return st.ID, "", opFailed
	}
	var res jobs.Result
	if err := json.Unmarshal(out, &res); err != nil {
		return st.ID, "", opWrong
	}
	cells, err := json.Marshal(res.Cells)
	if err != nil || res.ID != st.ID || len(res.Cells) != 1 || res.Cells[0].Config != campConfig ||
		res.Cells[0].Estimate == nil || res.Cells[0].Estimate.Patterns != campN ||
		fleet.HashBytes(cells) != res.Hash {
		return st.ID, res.Hash, opWrong
	}
	return st.ID, res.Hash, opOK
}

// waitDone follows the job's SSE stream until a terminal event.
func (wl *campWL) waitDone(sys *system, id string) (jobs.State, error) {
	resp, err := sys.client.Get(sys.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", err
		}
		if ev.State.Terminal() {
			// Drain to the end of the stream so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return ev.State, err
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("event stream of %s ended without a terminal state", id)
}

func (wl *campWL) warmup(sys *system) error {
	rng := rand.New(rand.NewPCG(wl.b.seed^0x5741524d, 0x63616d70))
	for i := 0; i < campWarmOps; i++ {
		if _, _, o := wl.ask(sys, wl.campaign(rng.Uint64()|1)); o != opOK {
			return fmt.Errorf("warm-up campaign %d failed", i)
		}
	}
	return nil
}

func (wl *campWL) op(sys *system, _, k int) outcome {
	camp := wl.campaign(wl.rng.Uint64() | 1)
	t0 := time.Now()
	id, hash, o := wl.ask(sys, camp)
	t1 := time.Now()
	traced := wl.b.tr != nil
	if traced {
		wl.b.tr.add(wl.b.tr.id(), 0, id, "campaign.op", t0, t1)
	}
	if o == opOK && (k%campSample == 0 || traced) {
		wl.mu.Lock()
		wl.rec = append(wl.rec, campOp{k: k, camp: camp, id: id, hash: hash, start: t0, end: t1})
		wl.mu.Unlock()
	}
	return o
}

// verify re-runs every sampled campaign on a local jobs.Manager with no
// fleet and compares the result hashes.
func (wl *campWL) verify() (int64, error) {
	dir, err := os.MkdirTemp(wl.b.root, "reference-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	m, err := jobs.Open(jobs.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer m.Close()
	var wrong int64
	for _, op := range wl.rec {
		if op.k%campSample != 0 {
			continue
		}
		st, err := m.Submit(op.camp)
		if err != nil {
			return 0, err
		}
		if st, err = m.Wait(context.Background(), st.ID); err != nil {
			return 0, err
		}
		if st.State != jobs.StateDone || st.Hash != op.hash {
			wrong++
		}
	}
	return wrong, nil
}

// shardPlans re-derives a spec campaign's shards (one cell, cut into
// the engine's deterministic chunks); ValidateShard confirms each.
func shardPlans(camp jobs.Campaign) []jobs.ShardPlan {
	chunks := engine.ChunkCount(camp.N)
	plans := make([]jobs.ShardPlan, chunks)
	for ch := range plans {
		lo, hi := engine.ChunkBounds(camp.N, chunks, ch)
		plans[ch] = jobs.ShardPlan{Config: camp.Configs[0], Chunk: ch, Lo: lo, Hi: hi}
	}
	return plans
}

func (wl *campWL) layers(sys *system, w window, before, after *snapshot) (map[string]metric, error) {
	tr := wl.b.tr
	ctx := context.Background()

	// Live: time to hash per campaign of the window, and the dispatch
	// spans the wrapped ShardRunner recorded under each of their jobs.
	dispatch := map[string]time.Duration{}
	for _, op := range wl.rec {
		dispatch[op.id] = 0
	}
	var dispatchSum time.Duration
	var dispatches int
	for _, s := range tr.named("fleet.dispatch") {
		if _, ok := dispatch[s.Op]; ok {
			dispatch[s.Op] += s.dur()
			dispatchSum += s.dur()
			dispatches++
		}
	}
	workers := float64(runtime.GOMAXPROCS(0)) // jobs.Options.Workers default
	var orch, toHash time.Duration
	for _, op := range wl.rec {
		t := op.end.Sub(op.start)
		o := t - time.Duration(float64(dispatch[op.id])/workers)
		if o < 0 {
			return nil, fmt.Errorf("campaign %s: orchestration remainder is negative", op.id)
		}
		orch += o
		toHash += t
	}

	// Replays of the first campaigns' shards through each layer's
	// public functions.
	worker := fleet.NewWorker(fleet.WorkerOptions{})
	ctr := &engine.Counters{}
	probe := &appProbe{t: tr}
	var runs int64
	var validate, exec, work, plain time.Duration
	var shards int
	var resultBytes int
	for _, op := range wl.rec {
		if op.k >= campReplay {
			continue
		}
		sc, err := op.camp.Spec.Compile(spec.EnvFor(wl.cfg))
		if err != nil {
			return nil, err
		}
		for _, sp := range shardPlans(op.camp) {
			shards++
			var norm jobs.Campaign
			validate += tr.timed(op.id, "jobs.validate", func() { norm, err = op.camp.ValidateShard(sp) })
			if err != nil {
				return nil, err
			}
			var raw json.RawMessage
			exec += tr.timed(op.id, "jobs.exec", func() { raw, err = jobs.ExecShard(ctx, norm, sp) })
			if err != nil {
				return nil, err
			}
			var resp fleet.ShardResponse
			work += tr.timed(op.id, "fleet.worker", func() {
				resp, err = worker.Execute(ctx, fleet.ShardRequest{Campaign: norm, Shard: sp})
			})
			if err != nil {
				return nil, err
			}
			resultBytes += len(resp.Result)
			var ce engine.ChunkEstimate
			plain += tr.timed(op.id, "engine.chunk", func() {
				ce, err = engine.ReplicateScenarioChunkValidatedCtx(ctx, sc, norm.Seed, sp.Lo, sp.Hi)
			})
			if err != nil {
				return nil, err
			}
			probe.op, probe.parent = op.id, tr.id()
			psc, err := probe.probed(sc, *op.camp.Spec, ctr)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			pce, err := engine.ReplicateScenarioChunkValidatedCtx(ctx, psc, norm.Seed, sp.Lo, sp.Hi)
			tr.add(probe.parent, 0, op.id, "engine.chunk.probed", t0, time.Now())
			if err != nil {
				return nil, err
			}
			runs += int64(sp.Hi - sp.Lo)
			want, err := json.Marshal(struct {
				Chunk *engine.ChunkEstimate `json:"chunk"`
			}{&ce})
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(raw, want) || !bytes.Equal(resp.Result, raw) || !sameJSON(pce, ce) {
				return nil, fmt.Errorf("campaign %s shard %d: replayed results differ", op.id, sp.Chunk)
			}
		}
	}
	if shards == 0 || len(wl.rec) == 0 {
		return nil, fmt.Errorf("no campaign recorded for replay")
	}
	shares := tr.appShares("engine.chunk.probed")
	shares.runs, shares.stateBytes, shares.digestBytes = runs, probe.stateBytes.Load(), probe.digestBytes.Load()
	shares.counters = ctr.Snapshot()
	if shares.self < 0 {
		return nil, fmt.Errorf("App self time is negative")
	}

	m := emptyLayers()
	shares.metrics(m)
	ms := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / 1e6 / float64(n)
	}
	camps := float64(w.attempted)
	workerMS := ms(work, shards)
	dispatchMS := ms(dispatchSum, dispatches)
	transportMS := dispatchMS - workerMS
	orchMS := ms(orch, len(wl.rec))
	m["jobs.validate_us_per_shard"] = metric{ms(validate, shards) * 1e3, "us"}
	m["jobs.exec_ms_per_shard"] = metric{ms(exec, shards), "ms"}
	m["jobs.fsyncs_per_campaign"] = metric{float64(after.jobs.JournalFsyncs-before.jobs.JournalFsyncs) / camps, "count"}
	m["jobs.journal_kb_per_campaign"] = metric{float64(after.jobs.JournalBytes-before.jobs.JournalBytes) / 1024 / camps, "KiB"}
	m["jobs.orchestration_ms_per_campaign"] = metric{orchMS, "ms"}
	perCampTransport := transportMS * float64(dispatches) / float64(len(wl.rec)) / workers
	m["jobs.orchestration_share"] = metric{(orchMS + perCampTransport) / ms(toHash, len(wl.rec)), "ratio"}
	if ex := after.jobs.ShardsExecuted - before.jobs.ShardsExecuted; ex > 0 {
		m["jobs.retry_ratio"] = metric{float64(after.jobs.ShardRetries-before.jobs.ShardRetries) / float64(ex), "ratio"}
	}
	m["fleet.worker_ms_per_shard"] = metric{workerMS, "ms"}
	m["fleet.dispatch_ms_per_shard"] = metric{dispatchMS, "ms"}
	m["fleet.transport_ms_per_shard"] = metric{transportMS, "ms"}
	if d := after.fleet.Dispatched - before.fleet.Dispatched; d > 0 {
		m["fleet.redispatch_ratio"] = metric{float64(after.fleet.Redispatched-before.fleet.Redispatched) / float64(d), "ratio"}
	}
	m["fleet.result_kb_per_shard"] = metric{float64(resultBytes) / 1024 / float64(shards), "KiB"}
	m["trace.overhead_ratio"] = metric{float64(shares.total) / float64(plain), "ratio"}
	confirm("digests and state serialization are at most a tenth of App time",
		m["detect.vc_share"].Value <= 0.1)
	confirm("fleet transport and jobs orchestration are at least a third of the time to hash",
		m["jobs.orchestration_share"].Value >= 1.0/3)
	return m, nil
}
