package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"respeed/internal/obs"
)

// tracedResponse is the canned peer reply carrying a worker span, as a
// real worker would return when the dispatch carried X-Parent-Span.
func tracedResponse(result json.RawMessage) ShardResponse {
	return ShardResponse{
		Result: result, Hash: HashBytes(result), ElapsedSeconds: 0.25,
		Trace: &obs.SpanSnapshot{Name: "shard-exec", ID: "feedfeedfeedfeed"},
	}
}

func TestDispatchPropagatesTraceAndGrafts(t *testing.T) {
	camp, sp := testCampaign(t)
	result := json.RawMessage(`{"chunk":{"count":2}}`)
	var gotReqID, gotParent string
	srv := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		gotReqID = r.Header.Get("X-Request-ID")
		gotParent = r.Header.Get("X-Parent-Span")
		json.NewEncoder(w).Encode(tracedResponse(result))
	})
	c := newTestCoordinator(t, Options{Peers: []Peer{{URL: srv.URL}}, TraceRemote: true})

	tr := obs.NewTracer(8)
	ctx := obs.WithRequestID(obs.WithTracer(context.Background(), tr), "j000042")
	if _, err := c.RunShard(ctx, camp, sp, 0, 1); err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if gotReqID != "j000042" {
		t.Errorf("X-Request-ID = %q, want the job id", gotReqID)
	}
	if gotParent == "" {
		t.Error("X-Parent-Span missing from dispatch")
	}
	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name != "dispatch" {
		t.Fatalf("tracer roots = %+v, want one dispatch span", roots)
	}
	d := roots[0]
	if d.Attrs["peer"] != srv.URL {
		t.Errorf("dispatch span peer attr = %q, want %q", d.Attrs["peer"], srv.URL)
	}
	if len(d.Children) != 1 || d.Children[0].Name != "shard-exec" {
		t.Fatalf("dispatch children = %+v, want the grafted worker span", d.Children)
	}
}

func TestDispatchOmitsTraceHeadersWhenDisabled(t *testing.T) {
	camp, sp := testCampaign(t)
	result := json.RawMessage(`{"chunk":{"count":2}}`)
	var sawReqID, sawParent bool
	srv := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		_, sawReqID = r.Header["X-Request-Id"]
		_, sawParent = r.Header["X-Parent-Span"]
		json.NewEncoder(w).Encode(ShardResponse{Result: result, Hash: HashBytes(result)})
	})
	c := newTestCoordinator(t, Options{Peers: []Peer{{URL: srv.URL}}})
	ctx := obs.WithRequestID(context.Background(), "j000042")
	if _, err := c.RunShard(ctx, camp, sp, 0, 1); err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if sawReqID || sawParent {
		t.Errorf("trace headers sent with TraceRemote off (reqID=%v parent=%v)", sawReqID, sawParent)
	}
}

// registryValue scrapes one series out of a registry.
func registryValue(t *testing.T, r *obs.Registry, name string, labels map[string]string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exp, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	v, err := exp.Value(name, labels)
	if err != nil {
		t.Fatalf("Value(%s%v): %v", name, labels, err)
	}
	return v
}

func TestPeerTransitionCounters(t *testing.T) {
	camp, sp := testCampaign(t)
	srv := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, Options{Peers: []Peer{{URL: srv.URL}}, Registry: reg})

	// A 5xx dispatch flips the peer down once; repeating it must not
	// double-count the transition.
	for i := 0; i < 2; i++ {
		c.RunShard(context.Background(), camp, sp, 0, 1)
		c.peers[0].mu.Lock()
		c.peers[0].up = true // re-arm dispatch; the counter must still read one flip
		c.peers[0].mu.Unlock()
	}
	down := registryValue(t, reg, "respeed_fleet_peer_transitions_total",
		map[string]string{"peer": srv.URL, "to": "down"})
	if down != 2 {
		t.Errorf("transitions to down = %g, want 2 (one per flip)", down)
	}

	c.peers[0].mu.Lock()
	c.peers[0].up = false
	c.peers[0].mu.Unlock()
	c.probe(c.peers[0]) // healthz succeeds → revival transition
	up := registryValue(t, reg, "respeed_fleet_peer_transitions_total",
		map[string]string{"peer": srv.URL, "to": "up"})
	if up != 1 {
		t.Errorf("transitions to up = %g, want 1", up)
	}
}

// metricsPeer is a fake peer whose /metrics serves a fixed exposition.
func metricsPeer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		w.Write([]byte(body))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(probedHealthz))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestFederatedMetrics(t *testing.T) {
	live := metricsPeer(t, "# TYPE respeed_fleet_active_shards gauge\nrespeed_fleet_active_shards 2\n")
	reg := obs.NewRegistry()
	reg.NewCounter("respeed_test_self_total", "Coordinator-local series.").Add(5)
	c := newTestCoordinator(t, Options{
		Peers:    []Peer{{URL: live.URL}, {URL: "http://127.0.0.1:1"}}, // second peer is dead
		Registry: reg,
	})
	c.ScrapeNow()

	var buf bytes.Buffer
	if err := c.FederatedMetrics(&buf); err != nil {
		t.Fatalf("FederatedMetrics: %v", err)
	}
	exp, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("federated exposition does not strict-parse: %v\n%s", err, buf.String())
	}
	if v, err := exp.Value("respeed_fleet_active_shards", map[string]string{"peer": live.URL}); err != nil || v != 2 {
		t.Errorf("live peer series = %g, %v; want 2 under peer=%s", v, err, live.URL)
	}
	if v, err := exp.Value("respeed_test_self_total", map[string]string{"peer": "self"}); err != nil || v != 5 {
		t.Errorf("self series = %g, %v; want 5 under peer=self", v, err)
	}
	if v, err := exp.Value("respeed_fleet_scrape_errors_total", map[string]string{"peer": "http://127.0.0.1:1"}); err != nil || v < 1 {
		t.Errorf("dead peer scrape errors = %g, %v; want >= 1", v, err)
	}
	if _, err := exp.Value("respeed_fleet_scrape_staleness_seconds", map[string]string{"peer": live.URL}); err != nil {
		t.Errorf("live peer staleness missing: %v", err)
	}
	// The self source carries the coordinator's own peer-labeled fleet
	// series; federation must rename their label, not drop or duplicate.
	if !strings.Contains(buf.String(), `exported_peer=`) {
		t.Error("expected exported_peer relabeling of the coordinator's own peer-labeled series")
	}
}

func TestScrapeKeepsStaleCacheOnFailure(t *testing.T) {
	srv := metricsPeer(t, "# TYPE x_total counter\nx_total 1\n")
	c := newTestCoordinator(t, Options{Peers: []Peer{{URL: srv.URL}}, ScrapeInterval: time.Hour})
	c.ScrapeNow()
	srv.Close()
	c.ScrapeNow() // fails: cache must survive, errors must count
	p := c.peers[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastExp == nil {
		t.Error("stale exposition discarded on scrape failure")
	}
	if p.scrapeErrs == 0 {
		t.Error("failed scrape not counted")
	}
}
