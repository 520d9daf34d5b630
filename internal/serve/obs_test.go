package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"respeed/internal/jobs"
	"respeed/internal/obs"
	"respeed/internal/spec"
)

// scrape fetches /metrics in the requested shape and returns the body.
func scrape(t *testing.T, url string, jsonAccept bool) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if jsonAccept {
		req.Header.Set("Accept", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestPrometheusExposition drives realistic traffic (solves, plain and
// scenario simulations, a finished campaign) through the full handler
// and validates the resulting text exposition with the strict parser.
func TestPrometheusExposition(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := jobs.Open(jobs.Options{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ts := httptest.NewServer(New(Options{Jobs: m, Registry: reg}).Handler())
	t.Cleanup(ts.Close)

	for _, path := range []string{
		"/v1/solve?config=Hera%2FXScale&rho=3",
		"/v1/simulate?config=Hera%2FXScale&rho=3&n=100",
		"/v1/simulate?config=Hera%2FXScale&rho=3&n=2&scenario=partial-failstop",
		"/no/such/route",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// A POSTed spec mints its own scenario label (spec:<name>).
	sp, _ := spec.ByName("cluster-twolevel")
	doc, _ := spec.Canonical(sp)
	resp, err := http.Post(ts.URL+"/v1/simulate?config=Hera%2FXScale&n=2",
		"application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec POST: %d", resp.StatusCode)
	}
	var st jobs.Status
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		jobs.Campaign{Kind: jobs.KindSweep, Configs: []string{"Hera/XScale"}, Rhos: []float64{3, 4}},
		&st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.State != jobs.StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
	}

	resp, body := scrape(t, ts.URL, false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content-type %q, want %q", ct, obs.ContentType)
	}
	exp, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}

	atLeast := func(name string, labels map[string]string, min float64) {
		t.Helper()
		v, err := exp.Value(name, labels)
		if err != nil {
			t.Errorf("%s%v: %v", name, labels, err)
			return
		}
		if v < min {
			t.Errorf("%s%v = %g, want >= %g", name, labels, v, min)
		}
	}
	// HTTP-level series.
	atLeast("respeed_http_requests_total", map[string]string{"endpoint": "/v1/solve"}, 1)
	atLeast("respeed_http_requests_total", map[string]string{"endpoint": "/v1/simulate"}, 2)
	atLeast("respeed_http_cache_misses_total", map[string]string{"endpoint": "/v1/solve"}, 1)
	atLeast("respeed_http_request_duration_seconds_count", map[string]string{"endpoint": "/v1/solve"}, 1)
	atLeast("respeed_uptime_seconds", nil, 0)
	atLeast("respeed_cache_capacity", nil, 1)
	if len(exp.Find("respeed_build_info")) != 1 {
		t.Error("missing respeed_build_info")
	}
	// Engine-level series: the plain replication and the scenario runs
	// both moved their labeled counters.
	atLeast("respeed_engine_patterns_total", map[string]string{"scenario": "pattern"}, 100)
	atLeast("respeed_engine_simulated_seconds_total", map[string]string{"scenario": "pattern"}, 1)
	atLeast("respeed_engine_patterns_total", map[string]string{"scenario": "partial-failstop"}, 1)
	atLeast("respeed_engine_recoveries_total", map[string]string{"scenario": "partial-failstop"}, 1)
	// The POSTed spec's dynamically minted label moved its counters too.
	atLeast("respeed_engine_patterns_total", map[string]string{"scenario": "spec:cluster-twolevel"}, 1)
	// Jobs-level series from the shared registry.
	atLeast("respeed_jobs_shards_executed_total", nil, 2)
	atLeast("respeed_jobs_shard_duration_seconds_count", nil, 2)

	// The unrouted path must not have minted a series.
	for _, s := range exp.Find("respeed_http_requests_total") {
		if strings.Contains(s.Labels["endpoint"], "/no/such") {
			t.Errorf("unrouted path leaked into metrics: %+v", s)
		}
	}

	// The JSON snapshot remains available by content negotiation.
	resp, body = scrape(t, ts.URL, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json scrape status %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("json snapshot: %v", err)
	}
	if _, ok := snap.Endpoints["/v1/solve"]; !ok || snap.Jobs == nil {
		t.Fatalf("json snapshot incomplete: %+v", snap)
	}
}

// TestReferenceMemoSeries posts one spec twice, under two seeds so the
// response cache misses both times. The first request builds the spec's
// clean trajectory (a memo miss); the second finds it (a hit, no new
// miss). The four memo series are process-wide, so the test reads their
// deltas, and the exposition carrying them still parses strictly.
func TestReferenceMemoSeries(t *testing.T) {
	ts := httptest.NewServer(New(Options{Registry: obs.NewRegistry()}).Handler())
	t.Cleanup(ts.Close)
	memo := func() (hits, misses, bytes float64) {
		t.Helper()
		_, body := scrape(t, ts.URL, false)
		exp, err := obs.ParseExposition(body)
		if err != nil {
			t.Fatalf("exposition invalid: %v\n%s", err, body)
		}
		read := func(name string) float64 {
			v, err := exp.Value(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		read("respeed_engine_reference_memo_evictions_total")
		return read("respeed_engine_reference_memo_hits_total"), read("respeed_engine_reference_memo_misses_total"),
			read("respeed_engine_reference_memo_bytes")
	}
	// A workload no other test of the package runs, so its key is cold.
	doc := []byte(`{"version":1,"name":"memo-series","plan":{"w":50,"sigma1":0.4,"sigma2":0.8},"total_work":450,` +
		`"workload":{"kind":"heat","size":40,"alpha":0.3},"faults":{"silent":{"dist":"exponential","rate":2e-3}}}`)
	post := func(seed string) {
		t.Helper()
		if code, body := postBody(t, ts.URL+"/v1/simulate?config=Hera%2FXScale&n=2&seed="+seed, doc); code != http.StatusOK {
			t.Fatalf("POST spec: %d\n%s", code, body)
		}
	}
	hits0, misses0, _ := memo()
	post("1")
	hits1, misses1, bytes1 := memo()
	if misses1 < misses0+1 || bytes1 <= 0 {
		t.Fatalf("first request: misses %g -> %g, %g bytes held; want a miss and a held trajectory", misses0, misses1, bytes1)
	}
	post("2")
	hits2, misses2, _ := memo()
	if misses2 != misses1 || hits2 <= hits1 {
		t.Fatalf("second request: misses %g -> %g, hits %g -> %g (from %g); want hits only", misses1, misses2, hits1, hits2, hits0)
	}
}

// TestRequestIDsAndDebugTraces: the middleware accepts or assigns
// X-Request-ID and records root spans in the /debug/traces ring.
func TestRequestIDsAndDebugTraces(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(ts.Close)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied-42" {
		t.Errorf("request ID not echoed: %q", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("generated request ID %q, want 16 hex chars", got)
	}

	resp, err = http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces TracesReply
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if traces.Total < 2 || len(traces.Traces) < 2 {
		t.Fatalf("traces: total=%d retained=%d, want >= 2", traces.Total, len(traces.Traces))
	}
	found := false
	for _, root := range traces.Traces {
		if root.Name == "GET /healthz" && root.Attrs["request_id"] == "caller-supplied-42" &&
			root.Attrs["status"] == "200" {
			found = true
		}
	}
	if !found {
		t.Errorf("no span for the tagged /healthz request: %+v", traces.Traces)
	}
}

// TestHealthzBuildInfo: /healthz reports build metadata and uptime.
func TestHealthzBuildInfo(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(ts.Close)
	var health HealthReply
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Status != "ok" || health.UptimeSeconds < 0 || health.Build.GoVersion == "" {
		t.Fatalf("healthz payload: %+v", health)
	}
}

// readSSE consumes one SSE stream to EOF, returning the data frames
// (decoded JSON kept raw), comment lines, and event names.
func readSSE(t *testing.T, body io.Reader) (data []string, comments []string, names []string) {
	t.Helper()
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: "))
		case strings.HasPrefix(line, ":"):
			comments = append(comments, line)
		case strings.HasPrefix(line, "event: "):
			names = append(names, strings.TrimPrefix(line, "event: "))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	return data, comments, names
}

// TestSimulateEventsStream: /v1/simulate/events streams the engine's
// live trace as SSE frames and terminates with event: done.
func TestSimulateEventsStream(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/simulate/events?config=Hera%2FXScale&rho=3&n=3&seed=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	data, _, names := readSSE(t, resp.Body)
	if len(data) < 3 {
		t.Fatalf("got %d frames, want >= 3 (one per pattern at least)", len(data))
	}
	var ev struct {
		Run  int    `json:"run"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal([]byte(data[0]), &ev); err != nil || ev.Kind == "" {
		t.Fatalf("bad first frame %q: %v", data[0], err)
	}
	last := data[len(data)-2] // -1 is the done frame's "{}"
	if err := json.Unmarshal([]byte(last), &ev); err != nil || ev.Run != 2 {
		t.Fatalf("last trace frame %q: run=%d, want 2", last, ev.Run)
	}
	if len(names) == 0 || names[len(names)-1] != "done" {
		t.Fatalf("terminal event %v, want done", names)
	}

	// Scenario streams work too and carry checkpoint richness.
	resp, err = http.Get(ts.URL +
		"/v1/simulate/events?config=Hera%2FXScale&rho=3&scenario=cluster-twolevel&n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _, names = readSSE(t, resp.Body)
	if len(data) < 2 || len(names) == 0 || names[len(names)-1] != "done" {
		t.Fatalf("scenario stream: %d frames, events %v", len(data), names)
	}

	// Bad parameters answer JSON errors, not streams.
	resp, err = http.Get(ts.URL + "/v1/simulate/events?config=Hera%2FXScale&rho=3&n=1000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized n: status %d", resp.StatusCode)
	}
}

// TestSimulateEventsRejectsUnknownParams: a typoed parameter on the
// events stream answers 400 naming the offender, with the same error as
// /v1/simulate, instead of streaming the default seed.
func TestSimulateEventsRejectsUnknownParams(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(ts.Close)

	errOf := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if resp.StatusCode != http.StatusBadRequest || json.NewDecoder(resp.Body).Decode(&e) != nil {
			t.Fatalf("%s: status %d, want a 400 JSON error", path, resp.StatusCode)
		}
		return e.Error
	}
	const query = "?config=Hera%2FXScale&rho=3&n=2&seeed=5"
	got := errOf("/v1/simulate/events" + query)
	if !strings.Contains(got, `"seeed"`) {
		t.Errorf("error %q does not name the offender", got)
	}
	if want := errOf("/v1/simulate" + query); got != want {
		t.Errorf("events error %q, /v1/simulate says %q", got, want)
	}
}

// TestJobsSSEKeepalive pins the stalled-stream contract: while a
// campaign makes no progress, the events stream still emits keepalive
// comments, and the stream finishes normally once work resumes.
func TestJobsSSEKeepalive(t *testing.T) {
	gate := make(chan struct{})
	released := false
	m, err := jobs.Open(jobs.Options{
		Dir:     t.TempDir(),
		Workers: 1,
		BeforeShard: func(jobID string, shard, attempt int) error {
			if !released {
				<-gate
				released = true
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ts := httptest.NewServer(New(Options{Jobs: m, SSEKeepalive: 20 * time.Millisecond}).Handler())
	t.Cleanup(ts.Close)

	st, err := m.Submit(jobs.Campaign{Kind: jobs.KindSweep, Configs: []string{"Hera/XScale"}, Rhos: []float64{3}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	keepalives, terminal := 0, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ": keepalive") {
			keepalives++
			if keepalives == 2 {
				close(gate) // un-stall the campaign
			}
			continue
		}
		if strings.HasPrefix(line, "data: ") {
			var ev jobs.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad frame %q: %v", line, err)
			}
			if ev.State.Terminal() {
				terminal = true
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	if keepalives < 2 {
		t.Errorf("saw %d keepalive comments during the stall, want >= 2", keepalives)
	}
	if !terminal {
		t.Error("stream ended without a terminal event")
	}
}
