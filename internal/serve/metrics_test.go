package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"respeed/internal/jobs"
	"respeed/internal/obs"
)

func TestMetricsObserveAndSnapshot(t *testing.T) {
	s := New(Options{CacheSize: 100})
	for i := 0; i < 5; i++ {
		s.cache.put(fmt.Sprint(i), response{status: http.StatusOK})
	}
	s.observe("/v1/solve", 2*time.Millisecond, false, 200)
	s.observe("/v1/solve", 1*time.Millisecond, true, 200)
	s.observe("/v1/solve", 3*time.Millisecond, true, 422)
	snap := s.Metrics()
	ep, ok := snap.Endpoints["/v1/solve"]
	if !ok {
		t.Fatal("endpoint missing from snapshot")
	}
	if ep.Requests != 3 || ep.CacheHits != 2 || ep.CacheMisses != 1 || ep.Errors != 1 {
		t.Errorf("counters: %+v", ep)
	}
	if got, want := ep.HitRate, 2.0/3.0; got != want {
		t.Errorf("hit rate %g, want %g", got, want)
	}
	if ep.Latency.MeanMs < 1.5 || ep.Latency.MeanMs > 2.5 {
		t.Errorf("mean latency %g ms, want ≈ 2", ep.Latency.MeanMs)
	}
	// Quantiles interpolate inside one bucket: p50 of {1,2,3} ms must
	// land within ~20% of 2 ms.
	if ep.Latency.P50Ms < 1.6 || ep.Latency.P50Ms > 2.4 {
		t.Errorf("p50 %g ms, want ≈ 2", ep.Latency.P50Ms)
	}
	if snap.CacheEntries != 5 || snap.CacheCapacity != 100 {
		t.Errorf("cache gauges: %+v", snap)
	}
}

func TestMetricsSnapshotIsAlwaysValidJSON(t *testing.T) {
	// Empty instruments give NaN means and quantiles; the snapshot must
	// still marshal (NaN → 0 guards).
	s := New(Options{})
	if _, err := json.Marshal(s.Metrics()); err != nil {
		t.Fatalf("empty snapshot does not marshal: %v", err)
	}
	s.observe("/healthz", 0, false, 200) // zero-duration edge
	if _, err := json.Marshal(s.Metrics()); err != nil {
		t.Fatalf("zero-latency snapshot does not marshal: %v", err)
	}
}

func TestMetricsQuantileOrdering(t *testing.T) {
	s := New(Options{})
	for i := 1; i <= 1000; i++ {
		s.observe("/v1/gain", time.Duration(i)*time.Microsecond, false, 200)
	}
	ep := s.Metrics().Endpoints["/v1/gain"]
	l := ep.Latency
	if !(l.P50Ms <= l.P90Ms && l.P90Ms <= l.P99Ms) {
		t.Errorf("quantiles not monotone: %+v", l)
	}
	if l.P50Ms < 0.3 || l.P50Ms > 0.8 {
		t.Errorf("p50 %g ms, want ≈ 0.5", l.P50Ms)
	}
	if l.P99Ms < 0.7 || l.P99Ms > 1.3 {
		t.Errorf("p99 %g ms, want ≈ 1", l.P99Ms)
	}
}

func TestMetricsConcurrentObserve(t *testing.T) {
	s := New(Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.observe("/v1/solve", time.Millisecond, i%2 == 0, 200)
			}
		}()
	}
	wg.Wait()
	snap := s.Metrics()
	ep := snap.Endpoints["/v1/solve"]
	if ep.Requests != 1600 || ep.CacheHits != 800 {
		t.Errorf("lost updates: %+v", ep)
	}
	if len(snap.Endpoints) != 1 {
		t.Errorf("rows for %v, want only /v1/solve", endpointKeys(snap))
	}
}

func endpointKeys(snap MetricsSnapshot) []string {
	keys := make([]string, 0, len(snap.Endpoints))
	for k := range snap.Endpoints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestMetricsJSONMatchesExposition is the one-meter contract: after
// traffic through Handler, each JSON row's counts are the exposition's
// respeed_http_*_total series for its endpoint, and its quantiles are
// Quantile over the exposition's _bucket series, clamped to the row's
// min and max.
func TestMetricsJSONMatchesExposition(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(ts.Close)
	for _, path := range []string{
		"/v1/solve?config=Hera%2FXScale&rho=3",
		"/v1/solve?config=Hera%2FXScale&rho=3",
		"/v1/solve?config=Hera%2FXScale&rho=4",
		"/v1/solve?config=Hera%2FXScale&rho=x",
		"/v1/sigma1-table?config=Hera%2FXScale&rho=3",
		"/v1/gain?config=Atlas%2FCrusoe&rho=1.3",
		"/v1/gain?config=Atlas%2FCrusoe&rho=1.3",
		"/v1/simulate?config=Hera%2FXScale&rho=3&n=20",
		"/healthz",
	} {
		get(t, ts.URL, path, nil)
	}
	resp, body := get(t, ts.URL, "/metrics?format=json", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json scrape: %d", resp.StatusCode)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	_, text := scrape(t, ts.URL, false)
	exp, err := obs.ParseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Endpoints) != 5 {
		t.Errorf("rows for %v, want the five endpoints hit", endpointKeys(snap))
	}
	for name, row := range snap.Endpoints {
		ep := map[string]string{"endpoint": name}
		value := func(family string) int64 {
			t.Helper()
			v, err := exp.Value(family, ep)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return int64(v)
		}
		for _, c := range []struct {
			family string
			row    int64
		}{
			{"respeed_http_requests_total", row.Requests},
			{"respeed_http_errors_total", row.Errors},
			{"respeed_http_timeouts_total", row.Timeouts},
			{"respeed_http_cache_hits_total", row.CacheHits},
			{"respeed_http_cache_misses_total", row.CacheMisses},
		} {
			if got := value(c.family); got != c.row {
				t.Errorf("%s: %s = %d, JSON row says %d", name, c.family, got, c.row)
			}
		}

		h := obs.HistogramSnapshot{Min: row.Latency.MinMs / 1e3, Max: row.Latency.MaxMs / 1e3}
		for _, s := range exp.Find("respeed_http_request_duration_seconds_bucket") {
			if s.Labels["endpoint"] != name {
				continue
			}
			if s.Labels["le"] == "+Inf" {
				h.Count = uint64(s.Value)
				continue
			}
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				t.Fatal(err)
			}
			h.Uppers = append(h.Uppers, le)
			h.Cumulative = append(h.Cumulative, uint64(s.Value))
		}
		if h.Count != uint64(row.Requests) {
			t.Errorf("%s: %d observations, %d requests", name, h.Count, row.Requests)
		}
		for _, c := range []struct {
			q   float64
			row float64
		}{{0.50, row.Latency.P50Ms}, {0.90, row.Latency.P90Ms}, {0.99, row.Latency.P99Ms}} {
			if want := h.Quantile(c.q) * 1e3; math.Abs(c.row-want) > 1e-12*want {
				t.Errorf("%s: p%g = %g ms, Quantile over the exposition gives %g", name, 100*c.q, c.row, want)
			}
		}
		if !(row.Latency.P50Ms > 0) {
			t.Errorf("%s: p50 %g ms, want > 0", name, row.Latency.P50Ms)
		}
	}
}

// TestMetricsRowsAreTheRoutesHit: one request to every route yields a
// JSON row for exactly the routes hit, under the labels servedEndpoints
// registers, so no route meters into a label that has no instruments.
func TestMetricsRowsAreTheRoutesHit(t *testing.T) {
	m, err := jobs.Open(jobs.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	s := New(Options{Jobs: m})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	routes := []struct{ method, path, endpoint string }{
		{"GET", "/healthz", "/healthz"},
		{"POST", "/metrics", "/metrics"}, // a GET scrape does not meter itself
		{"GET", "/debug/traces", "/debug/traces"},
		{"GET", "/v1/configs", "/v1/configs"},
		{"GET", "/v1/solve?config=Hera%2FXScale&rho=3", "/v1/solve"},
		{"GET", "/v1/sigma1-table?config=Hera%2FXScale&rho=3", "/v1/sigma1-table"},
		{"GET", "/v1/gain?config=Hera%2FXScale&rho=3", "/v1/gain"},
		{"GET", "/v1/simulate?config=Hera%2FXScale&rho=3&n=4", "/v1/simulate"},
		{"GET", "/v1/simulate/events?config=Hera%2FXScale&rho=3&n=1", "/v1/simulate/events"},
		{"POST", "/v1/simulate?config=Hera%2FXScale", "/v1/simulate"},
		{"GET", "/v1/jobs", "/v1/jobs"},
		{"POST", "/v1/jobs", "/v1/jobs"},
		{"GET", "/v1/jobs/nosuch", "/v1/jobs/{id}"},
		{"DELETE", "/v1/jobs/nosuch", "/v1/jobs/{id}"},
		{"GET", "/v1/jobs/nosuch/result", "/v1/jobs/{id}/result"},
		{"GET", "/v1/jobs/nosuch/events", "/v1/jobs/{id}/events"},
		{"GET", "/v1/jobs/nosuch/trace", "/v1/jobs/{id}/trace"},
		{"POST", "/v1/shards", "/v1/shards"},
		{"GET", "/v1/fleet/metrics", "/v1/fleet/metrics"},
	}
	var want []string
	for _, r := range routes {
		req, err := http.NewRequest(r.method, ts.URL+r.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		// The body ends when the handler returns, after it metered.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		want = append(want, r.endpoint)
	}
	sort.Strings(want)
	want = slices.Compact(want)
	if got := endpointKeys(s.Metrics()); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("JSON rows %v, want one per route hit %v", got, want)
	}
	served := append([]string(nil), servedEndpoints...)
	sort.Strings(served)
	if strings.Join(served, " ") != strings.Join(want, " ") {
		t.Errorf("servedEndpoints %v, routes %v", served, want)
	}
}
