package serve

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"

	"respeed/internal/jobs"
)

// TestMetricsJSONShape pins the key tree of /metrics?format=json, the
// document dashboards and respeed.ServerMetrics decode: every key path
// with its JSON kind, for a server with a jobs manager attached that
// has served a /v1/solve miss, a hit and a 400.
func TestMetricsJSONShape(t *testing.T) {
	ts, _ := newJobsServer(t, jobs.Options{})
	for _, c := range []struct {
		path string
		code int
	}{
		{"/v1/solve?config=Hera%2FXScale&rho=3", http.StatusOK},         // miss
		{"/v1/solve?config=Hera%2FXScale&rho=3", http.StatusOK},         // hit
		{"/v1/solve?config=Hera%2FXScale&rho=x", http.StatusBadRequest}, // 400
	} {
		if resp, body := get(t, ts.URL, c.path, nil); resp.StatusCode != c.code {
			t.Fatalf("%s answered %d, want %d: %s", c.path, resp.StatusCode, c.code, body)
		}
	}
	resp, body := get(t, ts.URL, "/metrics?format=json", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics?format=json answered %d: %s", resp.StatusCode, body)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	var got []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		kind := "null"
		switch v := v.(type) {
		case map[string]any:
			kind = "object"
			for k, c := range v {
				walk(path+"."+k, c)
			}
		case []any:
			kind = "array"
		case float64:
			kind = "number"
		case string:
			kind = "string"
		case bool:
			kind = "bool"
		}
		got = append(got, path+" "+kind)
	}
	for k, v := range doc {
		walk(k, v)
	}
	sort.Strings(got)

	want := []string{
		"admission object",
		"admission.admitted number",
		"admission.degraded number",
		"admission.lanes object",
		"admission.lanes.express object",
		"admission.lanes.express.capacity number",
		"admission.lanes.express.in_flight number",
		"admission.lanes.express.queue_bound number",
		"admission.lanes.express.queued number",
		"admission.lanes.heavy object",
		"admission.lanes.heavy.capacity number",
		"admission.lanes.heavy.in_flight number",
		"admission.lanes.heavy.queue_bound number",
		"admission.lanes.heavy.queued number",
		"admission.overload string",
		"admission.policy string",
		"admission.shed number",
		"cache_capacity number",
		"cache_entries number",
		"cache_evictions number",
		"endpoints object",
		"endpoints./v1/solve object",
		"endpoints./v1/solve.cache_hits number",
		"endpoints./v1/solve.cache_misses number",
		"endpoints./v1/solve.errors number",
		"endpoints./v1/solve.hit_rate number",
		"endpoints./v1/solve.latency object",
		"endpoints./v1/solve.latency.max_ms number",
		"endpoints./v1/solve.latency.mean_ms number",
		"endpoints./v1/solve.latency.min_ms number",
		"endpoints./v1/solve.latency.p50_ms number",
		"endpoints./v1/solve.latency.p90_ms number",
		"endpoints./v1/solve.latency.p99_ms number",
		"endpoints./v1/solve.requests number",
		"endpoints./v1/solve.timeouts number",
		"jobs object",
		"jobs.cancelled number",
		"jobs.done number",
		"jobs.failed number",
		"jobs.journal_bytes number",
		"jobs.journal_fsyncs number",
		"jobs.queued number",
		"jobs.running number",
		"jobs.shard_retries number",
		"jobs.shards_executed number",
		"uptime_seconds number",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("key tree changed:\n got:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
