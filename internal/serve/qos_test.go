package serve

// White-box edge-QoS tests: admission policies, priority lanes,
// graceful degradation and the overload-path fixes. They live inside
// the package for the preCompute hook and direct access to serveCached,
// the cache and the metrics registry.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"respeed/internal/admit"
	"respeed/internal/jobs"
)

// blockEndpoint installs a preCompute hook that blocks the first
// computation on the given endpoint until the returned release is
// closed, signalling entered when the computation is holding its lane
// slot. Later computations (any endpoint) pass through.
func blockEndpoint(s *Server, endpoint string) (entered, release chan struct{}) {
	entered = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	s.preCompute = func(ep string) {
		if ep != endpoint {
			return
		}
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	return entered, release
}

func doGet(base, path string, header map[string]string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, nil
}

func get(t *testing.T, base, path string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := doGet(base, path, header)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestExpressLaneNotStarvedByHeavy is the acceptance scenario: with
// MaxInFlight=1 and a long /v1/simulate holding the heavy lane, a
// concurrent /v1/solve must complete without queueing behind it.
func TestExpressLaneNotStarvedByHeavy(t *testing.T) {
	s := New(Options{MaxInFlight: 1, RequestTimeout: 10 * time.Second})
	entered, release := blockEndpoint(s, "/v1/simulate")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	simDone := make(chan int, 1)
	go func() {
		resp, _, err := doGet(srv.URL, "/v1/simulate?config=Hera%2FXScale&rho=3&n=16", nil)
		if err != nil {
			simDone <- 0
			return
		}
		simDone <- resp.StatusCode
	}()
	<-entered // the heavy lane's only slot is now held

	start := time.Now()
	resp, body := get(t, srv.URL, solveURL, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve behind saturated heavy lane answered %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("solve took %v with the heavy lane full — it queued behind simulation", elapsed)
	}
	close(release)
	if st := <-simDone; st != http.StatusOK {
		t.Errorf("blocked simulate finally answered %d", st)
	}
}

// TestHeavyLaneFastFailsWith429: in reject mode with queueing disabled,
// an over-bound /v1/simulate answers an immediate 429 carrying
// Retry-After instead of burning RequestTimeout toward a 504.
func TestHeavyLaneFastFailsWith429(t *testing.T) {
	s := New(Options{MaxInFlight: 1, QueueBound: -1, RequestTimeout: 10 * time.Second})
	entered, release := blockEndpoint(s, "/v1/simulate")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer close(release) // LIFO: unblock before the server drains

	go doGet(srv.URL, "/v1/simulate?config=Hera%2FXScale&rho=3&n=16", nil)
	<-entered

	start := time.Now()
	resp, body := get(t, srv.URL, "/v1/simulate?config=Hera%2FXScale&rho=4&n=16", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound simulate answered %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("fast-fail took %v, want immediate", elapsed)
	}
	if snap := s.Metrics().Admission; snap == nil || snap.Shed == 0 {
		t.Errorf("shed counter not incremented: %+v", snap)
	}
}

// TestHeavyLaneDegradesToPartialEstimate: in degrade mode a saturated
// heavy lane answers 200 with a reduced-replica estimate marked
// "partial": true — and that answer is never cached.
func TestHeavyLaneDegradesToPartialEstimate(t *testing.T) {
	s := New(Options{MaxInFlight: 1, QueueBound: -1, RequestTimeout: 10 * time.Second,
		OverloadMode: OverloadDegrade})
	entered, release := blockEndpoint(s, "/v1/simulate")
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	simDone := make(chan struct{})
	go func() {
		doGet(srv.URL, "/v1/simulate?config=Hera%2FXScale&rho=3&n=16", nil)
		close(simDone)
	}()
	<-entered

	const query = "/v1/simulate?config=Hera%2FXScale&rho=4&n=1000&seed=7"
	resp, body := get(t, srv.URL, query, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded simulate answered %d: %s", resp.StatusCode, body)
	}
	var degraded SimulateReply
	if err := json.Unmarshal(body, &degraded); err != nil {
		t.Fatalf("decode degraded reply: %v", err)
	}
	if !degraded.Partial {
		t.Fatalf("degraded reply not marked partial: %s", body)
	}
	if degraded.N != 100 || degraded.RequestedN != 1000 {
		t.Errorf("degraded n/requested_n = %d/%d, want 100/1000", degraded.N, degraded.RequestedN)
	}
	if !(degraded.Estimate.Time.CI95 > 0) {
		t.Errorf("degraded estimate CI95 = %v, want a valid positive interval", degraded.Estimate.Time.CI95)
	}

	close(release)
	<-simDone

	// The degraded answer was volatile: the same query now computes the
	// full-accuracy result instead of replaying partial bytes.
	resp, body = get(t, srv.URL, query, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full simulate answered %d: %s", resp.StatusCode, body)
	}
	var full SimulateReply
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.N != 1000 {
		t.Errorf("degraded answer was cached: partial=%v n=%d", full.Partial, full.N)
	}
	if !(degraded.Estimate.Time.CI95 > full.Estimate.Time.CI95) {
		t.Errorf("degraded CI95 %v not wider than full-run CI95 %v",
			degraded.Estimate.Time.CI95, full.Estimate.Time.CI95)
	}
	if snap := s.Metrics().Admission; snap == nil || snap.Degraded != 1 {
		t.Errorf("degraded counter = %+v, want 1", snap)
	}
}

// TestFairShareAdmissionIsolatesTenants: one tenant flooding /v1/solve
// exhausts only its own budget; a quiet tenant's requests all pass.
func TestFairShareAdmissionIsolatesTenants(t *testing.T) {
	s := New(Options{Admission: admit.NewFairShare(1, 2, 0)})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	flood := map[string]string{"X-Tenant-ID": "flood"}
	var ok, shed int
	for i := 0; i < 6; i++ {
		// Distinct rho per request: every one misses the cache and
		// reaches admission.
		resp, _ := get(t, srv.URL, "/v1/solve?config=Hera%2FXScale&rho=1"+strings.Repeat("0", i+1), flood)
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("admission 429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if ok < 2 || shed < 3 {
		t.Errorf("flooding tenant: %d ok / %d shed, want >=2 ok (burst) and >=3 shed", ok, shed)
	}
	for _, rho := range []string{"3", "4"} {
		resp, body := get(t, srv.URL, "/v1/solve?config=Hera%2FXScale&rho="+rho,
			map[string]string{"X-Tenant-ID": "quiet"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("quiet tenant shed while another floods: %d %s", resp.StatusCode, body)
		}
	}
}

// TestRejectAllDrain: under the drain policy fresh work is shed with
// 429 + Retry-After while health checks and already-cached answers
// keep working.
func TestRejectAllDrain(t *testing.T) {
	s := New(Options{Admission: admit.RejectAll{}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sq, perr := parseSolveQuery(url.Values{"config": {"Hera/XScale"}, "rho": {"3"}})
	if perr != nil {
		t.Fatal(perr)
	}
	cached := response{status: http.StatusOK, body: []byte("{\"cached\":true}\n")}
	s.cache.put(sq.key("solve", "false"), cached)

	resp, body := get(t, srv.URL, solveURL, nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "cached") {
		t.Errorf("cached answer not served during drain: %d %s", resp.StatusCode, body)
	}
	resp, _ = get(t, srv.URL, "/v1/solve?config=Hera%2FXScale&rho=4", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("fresh work during drain answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain 429 without Retry-After")
	}
	if resp, _ := get(t, srv.URL, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz answered %d during drain", resp.StatusCode)
	}
}

// TestFollowerOwnsComputationAfterLeaderDeadline pins the singleflight
// follower-error fix: a follower that joined a call whose leader burned
// its own computation window must not inherit the leader's context
// error — it retries, owns the key, and answers 200.
func TestFollowerOwnsComputationAfterLeaderDeadline(t *testing.T) {
	s := New(Options{RequestTimeout: time.Second})
	var computes atomic.Int32
	leaderIn := make(chan struct{})
	compute := func(ctx context.Context) (response, error) {
		if computes.Add(1) == 1 {
			close(leaderIn)
			<-ctx.Done() // the leader burns its whole window
			return response{}, ctx.Err()
		}
		return jsonResponse(http.StatusOK, map[string]bool{"ok": true})
	}
	do := func(resc chan *httptest.ResponseRecorder) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodGet, "/v1/solve", nil)
		s.serveCached(w, r, "/v1/solve", "follower-owns-test", compute)
		resc <- w
	}
	leaderRes := make(chan *httptest.ResponseRecorder, 1)
	go do(leaderRes)
	<-leaderIn
	time.Sleep(300 * time.Millisecond) // the follower's window outlives the leader's
	followerRes := make(chan *httptest.ResponseRecorder, 1)
	go do(followerRes)

	if w := <-leaderRes; w.Code != http.StatusGatewayTimeout {
		t.Errorf("leader answered %d, want 504", w.Code)
	}
	if w := <-followerRes; w.Code != http.StatusOK {
		t.Fatalf("follower answered %d, want 200 (retry-or-own): %s", w.Code, w.Body)
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("computes = %d, want 2 (leader timed out, follower re-owned)", n)
	}
}

// TestMetricsJSONNeverNaN: the JSON snapshot of a freshly started
// server (no samples anywhere) and of an endpoint row with an empty
// histogram must marshal — NaN would fail json.Marshal into a 500.
func TestMetricsJSONNeverNaN(t *testing.T) {
	s := New(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, body := get(t, srv.URL, "/metrics?format=json", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh /metrics answered %d: %s", resp.StatusCode, body)
	}
	var decoded map[string]any
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("fresh metrics snapshot is not valid JSON: %v\n%s", err, body)
	}

	// An endpoint row whose histogram holds zero samples (possible when
	// a scrape reads the row between a request's counter increment and
	// its latency observation).
	s.prom["/v1/gain"].misses.Inc()
	snap := s.Metrics()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot with empty histogram does not marshal: %v", err)
	}
	lat := snap.Endpoints["/v1/gain"].Latency
	if lat.MeanMs != 0 || lat.P50Ms != 0 || lat.P90Ms != 0 || lat.P99Ms != 0 {
		t.Errorf("empty-histogram quantiles not encoded as 0: %+v (%s)", lat, b)
	}
}

// TestJobs503CarriesRetryAfter: transient jobs-route 503s (closed or
// full manager) must tell clients when to come back.
func TestJobs503CarriesRetryAfter(t *testing.T) {
	m, err := jobs.Open(jobs.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	s := New(Options{Jobs: m})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"kind":"montecarlo","configs":["Hera/XScale"],"rhos":[3],"n":100}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit to closed manager answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("transient jobs 503 without Retry-After")
	}
}

// TestSimulateBytesStableWithAdmissionDisabled: with admission off the
// new QoS plumbing must not leak into responses — no partial markers,
// and the cached replay is byte-identical.
func TestSimulateBytesStableWithAdmissionDisabled(t *testing.T) {
	s := New(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const query = "/v1/simulate?config=Hera%2FXScale&rho=3&n=50&seed=1"
	resp, first := get(t, srv.URL, query, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate answered %d: %s", resp.StatusCode, first)
	}
	for _, marker := range []string{`"partial"`, `"requested_n"`} {
		if strings.Contains(string(first), marker) {
			t.Errorf("full-accuracy reply carries %s: %s", marker, first)
		}
	}
	_, second := get(t, srv.URL, query, nil)
	if string(first) != string(second) {
		t.Error("cached replay is not byte-identical to the first computation")
	}
}
