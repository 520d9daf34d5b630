package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"respeed/internal/jobs"
)

// testCampaign returns a tiny normalized Monte-Carlo campaign and a
// valid plan for its first chunk shard (n=128 splits into 64 chunks of
// two replications each).
func testCampaign(t *testing.T) (jobs.Campaign, jobs.ShardPlan) {
	t.Helper()
	camp := jobs.Campaign{
		Name:    "fleet-unit",
		Kind:    jobs.KindMonteCarlo,
		Configs: []string{"Hera/XScale"},
		Rhos:    []float64{3},
		N:       128,
		Seed:    1,
	}
	sp := jobs.ShardPlan{Config: "Hera/XScale", Rho: 3, Chunk: 0, Lo: 0, Hi: 2}
	norm, err := camp.ValidateShard(sp)
	if err != nil {
		t.Fatalf("ValidateShard: %v", err)
	}
	return norm, sp
}

// fakePeer serves /v1/shards with a canned handler and /healthz with a
// well-formed fleet block, so the coordinator's heartbeat keeps it up.
func fakePeer(t *testing.T, shards http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/shards", shards)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"fleet":{"active_shards":0}}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestCoordinator(t *testing.T, opts Options) *Coordinator {
	t.Helper()
	if opts.HeartbeatEvery == 0 {
		opts.HeartbeatEvery = time.Hour // keep probes out of the test's way
	}
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(Options{}); err == nil {
		t.Error("empty peer set: want error")
	}
	dup := []Peer{{URL: "http://a:1"}, {URL: "http://a:1"}}
	if _, err := NewCoordinator(Options{Peers: dup}); err == nil {
		t.Error("duplicate peers: want error")
	}
}

func TestRunShardDispatchesAndVerifies(t *testing.T) {
	camp, sp := testCampaign(t)
	result := json.RawMessage(`{"chunk":{"count":2}}`)
	var gotAuth string
	var gotReq ShardRequest
	srv := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		gotAuth = r.Header.Get("Authorization")
		if err := json.NewDecoder(r.Body).Decode(&gotReq); err != nil {
			t.Errorf("decode shard request: %v", err)
		}
		json.NewEncoder(w).Encode(ShardResponse{Result: result, Hash: HashBytes(result)})
	})
	c := newTestCoordinator(t, Options{Peers: []Peer{{URL: srv.URL}}, Token: "tok"})
	raw, err := c.RunShard(context.Background(), camp, sp, 0, 1)
	if err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if string(raw) != string(result) {
		t.Errorf("result = %s, want %s", raw, result)
	}
	if gotAuth != "Bearer tok" {
		t.Errorf("Authorization = %q, want bearer token", gotAuth)
	}
	if gotReq.Shard != sp {
		t.Errorf("peer saw shard %+v, want %+v", gotReq.Shard, sp)
	}
	st := c.Stats()
	if st.Dispatched != 1 || st.Redispatched != 0 || st.DispatchErrors != 0 {
		t.Errorf("stats = %+v, want exactly one clean dispatch", st)
	}
}

func TestRunShardRejectsHashMismatch(t *testing.T) {
	camp, sp := testCampaign(t)
	srv := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(ShardResponse{
			Result: json.RawMessage(`{"chunk":{}}`),
			Hash:   "0000000000000000",
		})
	})
	c := newTestCoordinator(t, Options{Peers: []Peer{{URL: srv.URL}}})
	if _, err := c.RunShard(context.Background(), camp, sp, 0, 1); err == nil {
		t.Fatal("corrupted reply accepted")
	}
	if st := c.Stats(); st.DispatchErrors != 1 {
		t.Errorf("DispatchErrors = %d, want 1", st.DispatchErrors)
	}
}

func TestRunShardBusyCarriesRetryHint(t *testing.T) {
	camp, sp := testCampaign(t)
	srv := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	c := newTestCoordinator(t, Options{Peers: []Peer{{URL: srv.URL}}})
	_, err := c.RunShard(context.Background(), camp, sp, 0, 1)
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("err = %v, want *BusyError", err)
	}
	if busy.Hint != 7*time.Second {
		t.Errorf("Hint = %s, want 7s", busy.Hint)
	}
	// The jobs manager discovers the hint through its RetryHint
	// interface — that wiring is the satellite's whole point.
	var hint jobs.RetryHint
	if !errors.As(err, &hint) || hint.RetryAfter() != 7*time.Second {
		t.Errorf("BusyError must surface as jobs.RetryHint with the 7s hint")
	}
	// A 429 means the peer is alive and shedding, not dead.
	if c.PeersUp() != 1 {
		t.Error("busy peer was marked down")
	}
}

func TestRunShardMarksDownOn5xx(t *testing.T) {
	camp, sp := testCampaign(t)
	srv := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	})
	c := newTestCoordinator(t, Options{Peers: []Peer{{URL: srv.URL}}})
	if _, err := c.RunShard(context.Background(), camp, sp, 0, 1); err == nil {
		t.Fatal("5xx reply accepted")
	}
	if c.PeersUp() != 0 {
		t.Error("peer still up after 5xx")
	}
}

// deadPeerTransport fails every round trip, so a peer dialed through it
// is dead by construction. (A closed test server's ephemeral port can be
// rebound by a concurrently running test binary, reviving the "dead"
// peer.)
type deadPeerTransport struct{}

func (deadPeerTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("connection refused")
}

// newDeadPeerCoordinator builds a coordinator whose one peer is dead.
// The heartbeat's immediate first probe marks the peer down, racing the
// test's first dispatch; the helper waits for that verdict, then
// restores the optimistic start state, so the first dispatch dials the
// peer as it would on a fleet whose first probe had not landed yet.
func newDeadPeerCoordinator(t *testing.T, localFallback bool) *Coordinator {
	t.Helper()
	c := newTestCoordinator(t, Options{
		Peers:         []Peer{{URL: "http://dead-peer.invalid"}},
		Client:        &http.Client{Transport: deadPeerTransport{}},
		LocalFallback: localFallback,
	})
	p := c.peers[0]
	for deadline := time.Now().Add(10 * time.Second); p.snapshot().Up; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("first heartbeat never marked the dead peer down")
		}
	}
	p.mu.Lock()
	p.up = true
	p.mu.Unlock()
	return c
}

func TestRunShardLocalFallbackMatchesLocalExecution(t *testing.T) {
	camp, sp := testCampaign(t)
	c := newDeadPeerCoordinator(t, true)
	// First attempt dials the dead peer and fails (marking it down).
	if _, err := c.RunShard(context.Background(), camp, sp, 0, 1); err == nil {
		t.Fatal("dispatch to dead peer succeeded")
	}
	// The retry lands locally — and produces exactly the bytes a local
	// manager would journal.
	raw, err := c.RunShard(context.Background(), camp, sp, 0, 2)
	if err != nil {
		t.Fatalf("local fallback: %v", err)
	}
	want, err := jobs.ExecShard(context.Background(), camp, sp)
	if err != nil {
		t.Fatalf("ExecShard: %v", err)
	}
	if string(raw) != string(want) {
		t.Errorf("fallback bytes differ from local execution")
	}
	st := c.Stats()
	if st.LocalShards != 1 || st.Redispatched != 1 {
		t.Errorf("stats = %+v, want one local shard and one re-dispatch", st)
	}
}

func TestRunShardNoPeersWithoutFallback(t *testing.T) {
	camp, sp := testCampaign(t)
	c := newDeadPeerCoordinator(t, false)
	if _, err := c.RunShard(context.Background(), camp, sp, 0, 1); err == nil {
		t.Fatal("dispatch to dead peer succeeded")
	}
	if _, err := c.RunShard(context.Background(), camp, sp, 0, 2); !errors.Is(err, ErrNoPeers) {
		t.Fatalf("err = %v, want ErrNoPeers", err)
	}
}

// TestRunShardTimeoutIsPlain pins the error-hygiene contract: a
// per-attempt timeout must NOT wrap context.DeadlineExceeded, because
// the jobs manager reads that as shutdown rather than a retryable
// failure. Only the caller's own cancellation may surface verbatim.
func TestRunShardTimeoutIsPlain(t *testing.T) {
	camp, sp := testCampaign(t)
	block := make(chan struct{})
	defer close(block)
	srv := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	})
	c := newTestCoordinator(t, Options{
		Peers:        []Peer{{URL: srv.URL}},
		ShardTimeout: 50 * time.Millisecond,
	})
	_, err := c.RunShard(context.Background(), camp, sp, 0, 1)
	if err == nil {
		t.Fatal("want timeout error")
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Fatalf("timeout error wraps a context sentinel: %v", err)
	}

	// A cancelled caller, by contrast, gets its own context error back.
	// (The timeout above marked the peer down; revive it so the second
	// attempt actually dials.)
	c.peers[0].mu.Lock()
	c.peers[0].up = true
	c.peers[0].mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	_, err = c.RunShard(ctx, camp, sp, 0, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestHeartbeatRevivesPeer(t *testing.T) {
	srv := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {})
	c := newTestCoordinator(t, Options{
		Peers:          []Peer{{URL: srv.URL}},
		HeartbeatEvery: 20 * time.Millisecond,
	})
	c.markDown(c.peers[0], "test")
	deadline := time.Now().Add(5 * time.Second)
	for c.PeersUp() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never revived the peer")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHeartbeatReadsActiveShards(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"fleet":{"active_shards":5},"status":"ok"}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	c := newTestCoordinator(t, Options{
		Peers:          []Peer{{URL: srv.URL}},
		HeartbeatEvery: 20 * time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot()[0].ActiveShards != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot = %+v, want active_shards 5", c.Snapshot()[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHashBytes(t *testing.T) {
	// FNV-64a of the empty input is the offset basis; any change to the
	// hash breaks journal compatibility, so pin it.
	if got := HashBytes(nil); got != "cbf29ce484222325" {
		t.Errorf("HashBytes(nil) = %s, want cbf29ce484222325", got)
	}
	if HashBytes([]byte("a")) == HashBytes([]byte("b")) {
		t.Error("distinct inputs collide")
	}
}
