package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"respeed/internal/jobs"
)

// newJobsServer starts an httptest server with a live job manager.
func newJobsServer(t *testing.T, jopts jobs.Options) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	if jopts.Dir == "" {
		jopts.Dir = t.TempDir()
	}
	m, err := jobs.Open(jopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ts := httptest.NewServer(New(Options{Jobs: m}).Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

// doJSON performs a request and decodes the JSON answer into out.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestJobsHTTPLifecycle drives the full campaign lifecycle over HTTP:
// submit → status → SSE progress to completion → result → list, plus
// job gauges on /metrics.
func TestJobsHTTPLifecycle(t *testing.T) {
	ts, _ := newJobsServer(t, jobs.Options{Workers: 2})

	// N is sized so the job (64 shards on 2 workers) comfortably
	// outlives the SSE subscription round-trip, so the stream observes
	// progress events, not just the terminal snapshot. The batched lane
	// kernel runs ~500k replications in under 30ms, so the campaign
	// needs several million to keep that margin.
	camp := jobs.Campaign{
		Name:    "http-lifecycle",
		Kind:    jobs.KindMonteCarlo,
		Configs: []string{"Hera/XScale"},
		Rhos:    []float64{3},
		N:       5_000_000,
		Seed:    7,
	}
	var st jobs.Status
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", camp, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if st.ID == "" || st.ShardsTotal != 64 {
		t.Fatalf("submit status: %+v", st)
	}

	// SSE: follow the stream until the terminal event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var last jobs.Event
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		events++
		if last.State.Terminal() {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	// The handler meters the stream just before it returns, and the body
	// ends only after that: drain it so the /metrics check below cannot
	// race the events endpoint's row.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("SSE drain: %v", err)
	}
	if last.State != jobs.StateDone || last.ShardsDone != 64 {
		t.Fatalf("terminal event: %+v (after %d events)", last, events)
	}
	if events < 2 {
		t.Fatalf("expected initial snapshot plus progress events, got %d", events)
	}

	var fin jobs.Status
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &fin); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if fin.State != jobs.StateDone || fin.Hash == "" {
		t.Fatalf("final status: %+v", fin)
	}

	var res jobs.Result
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	if res.Hash != fin.Hash || len(res.Cells) != 1 || res.Cells[0].Estimate == nil {
		t.Fatalf("result payload: hash=%q cells=%d", res.Hash, len(res.Cells))
	}

	var list JobListReply
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list payload: %+v", list)
	}

	// /metrics carries the job gauges and the jobs endpoints rows.
	var snap MetricsSnapshot
	if code := doJSON(t, http.MethodGet, ts.URL+"/metrics?format=json", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if snap.Jobs == nil {
		t.Fatal("metrics missing jobs gauges")
	}
	if snap.Jobs.Done != 1 || snap.Jobs.ShardsExecuted != 64 {
		t.Fatalf("job gauges: %+v", snap.Jobs)
	}
	for _, ep := range []string{"/v1/jobs", "/v1/jobs/{id}", "/v1/jobs/{id}/result", "/v1/jobs/{id}/events"} {
		if _, ok := snap.Endpoints[ep]; !ok {
			t.Errorf("metrics missing endpoint %s", ep)
		}
	}
}

// TestJobsHTTPResultConflictAndCancel: a long job answers 409 on an
// early result request and is cancellable over HTTP.
func TestJobsHTTPResultConflictAndCancel(t *testing.T) {
	ts, _ := newJobsServer(t, jobs.Options{Workers: 1})
	camp := jobs.Campaign{
		Kind:    jobs.KindMonteCarlo,
		Configs: []string{"Hera/XScale"},
		Rhos:    []float64{3},
		N:       10_000_000,
	}
	var st jobs.Status
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", camp, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/result", nil, &eb); code != http.StatusConflict {
		t.Fatalf("early result: status %d, want 409", code)
	}
	var cancelled jobs.Status
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil, &cancelled); code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur jobs.Status
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &cur)
		if cur.State == jobs.StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached cancelled: %+v", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobsHTTPErrors covers the error mapping: validation 400, unknown
// id 404, oversized body 413, disabled service 503.
func TestJobsHTTPErrors(t *testing.T) {
	ts, _ := newJobsServer(t, jobs.Options{})
	var eb struct {
		Error string `json:"error"`
	}

	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		map[string]any{"kind": "nonsense", "rhos": []float64{3}}, &eb); code != http.StatusBadRequest {
		t.Fatalf("bad kind: status %d", code)
	}
	if eb.Error == "" {
		t.Fatal("bad kind: empty error body")
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		map[string]any{"kind": "sweep", "rhos": []float64{3}, "bogus": 1}, &eb); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j999999", nil, &eb); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j999999/events", nil, &eb); code != http.StatusNotFound {
		t.Fatalf("unknown id events: status %d", code)
	}

	big := fmt.Sprintf(`{"kind":"sweep","name":%q,"rhos":[3]}`, strings.Repeat("x", maxJobBody))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", resp.StatusCode)
	}

	// A server without a manager answers 503 on every jobs route.
	plain := httptest.NewServer(New(Options{}).Handler())
	defer plain.Close()
	if code := doJSON(t, http.MethodGet, plain.URL+"/v1/jobs", nil, &eb); code != http.StatusServiceUnavailable {
		t.Fatalf("disabled list: status %d", code)
	}
	if !strings.Contains(eb.Error, "-jobs-dir") {
		t.Fatalf("disabled error should point at the flag: %q", eb.Error)
	}
	if code := doJSON(t, http.MethodPost, plain.URL+"/v1/jobs", map[string]any{"kind": "sweep"}, &eb); code != http.StatusServiceUnavailable {
		t.Fatalf("disabled submit: status %d", code)
	}
}

// TestConfigsAdvertisesVocabularies: /v1/configs lists the simulate
// scenarios and campaign kinds alongside the catalog.
func TestConfigsAdvertisesVocabularies(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	var reply ConfigsReply
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/configs", nil, &reply); code != http.StatusOK {
		t.Fatalf("configs: %d", code)
	}
	if len(reply.Configs) == 0 {
		t.Fatal("empty catalog")
	}
	if want := []string{"cluster-twolevel", "partial-failstop"}; !equalStrings(reply.Scenarios, want) {
		t.Errorf("scenarios = %v, want %v", reply.Scenarios, want)
	}
	if want := []string{"grid", "montecarlo", "spec", "sweep"}; !equalStrings(reply.CampaignKinds, want) {
		t.Errorf("campaign kinds = %v, want %v", reply.CampaignKinds, want)
	}
	if reply.SpecVersion < 1 {
		t.Errorf("spec version = %d, want >= 1", reply.SpecVersion)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
