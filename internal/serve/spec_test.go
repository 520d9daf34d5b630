// POST /v1/simulate tests: spec bodies reproduce the named scenarios
// bit-exactly, strict validation answers 400 naming the offender, and
// the cache keys on the canonical spec hash.
package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"respeed/internal/fleet"
	"respeed/internal/jobs"
	"respeed/internal/spec"
)

// postBody POSTs raw bytes and returns (status, body).
func postBody(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// reportAndEstimate extracts the raw report/estimate sub-documents so
// two replies can be compared byte-for-byte regardless of envelope.
type reportAndEstimate struct {
	Report   json.RawMessage `json:"report"`
	Estimate json.RawMessage `json:"estimate"`
	SpecHash string          `json:"spec_hash"`
	Spec     string          `json:"spec"`
}

// TestSimulateSpecPostBitExact: POSTing a built-in spec's canonical
// document must reproduce the named ?scenario= GET result byte for byte
// (report and estimate), proving the DSL path changed no observable
// simulation behavior.
func TestSimulateSpecPostBitExact(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(ts.Close)

	for _, name := range spec.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sp, ok := spec.ByName(name)
			if !ok {
				t.Fatalf("builtin %q missing", name)
			}
			doc, err := spec.Canonical(sp)
			if err != nil {
				t.Fatal(err)
			}
			var viaGet reportAndEstimate
			if code := doJSON(t, http.MethodGet, ts.URL+
				"/v1/simulate?config=Hera%2FXScale&rho=3&n=4&seed=9&scenario="+name,
				nil, &viaGet); code != http.StatusOK {
				t.Fatalf("GET scenario: %d", code)
			}
			code, body := postBody(t, ts.URL+"/v1/simulate?config=Hera%2FXScale&n=4&seed=9", doc)
			if code != http.StatusOK {
				t.Fatalf("POST spec: %d\n%s", code, body)
			}
			var viaPost reportAndEstimate
			if err := json.Unmarshal(body, &viaPost); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(viaGet.Report, viaPost.Report) {
				t.Errorf("report differs:\n GET  %s\n POST %s", viaGet.Report, viaPost.Report)
			}
			if !bytes.Equal(viaGet.Estimate, viaPost.Estimate) {
				t.Errorf("estimate differs:\n GET  %s\n POST %s", viaGet.Estimate, viaPost.Estimate)
			}
			if viaPost.Spec != name || len(viaPost.SpecHash) != 16 {
				t.Errorf("spec identity: name %q hash %q", viaPost.Spec, viaPost.SpecHash)
			}

			// A repeat POST replays the cached bytes verbatim.
			code2, body2 := postBody(t, ts.URL+"/v1/simulate?config=Hera%2FXScale&n=4&seed=9", doc)
			if code2 != http.StatusOK || !bytes.Equal(body, body2) {
				t.Errorf("repeat POST not byte-identical (status %d)", code2)
			}
			// A re-spelled but semantically identical document (extra
			// whitespace) shares the cache entry via the canonical hash.
			respelled := append([]byte("  "), doc...)
			respelled = append(respelled, '\n')
			code3, body3 := postBody(t, ts.URL+"/v1/simulate?config=Hera%2FXScale&n=4&seed=9", respelled)
			if code3 != http.StatusOK || !bytes.Equal(body, body3) {
				t.Errorf("re-spelled POST missed the hash-keyed cache (status %d)", code3)
			}
		})
	}
}

// TestSimulateSpecWeibull: a spec beyond the legacy catalog's
// vocabulary (Weibull fail-stop arrivals) runs end-to-end over POST.
func TestSimulateSpecWeibull(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(ts.Close)
	doc := []byte(`{
	  "version": 1,
	  "name": "weibull-smoke",
	  "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8},
	  "total_work": 500,
	  "faults": {
	    "silent": {"dist": "exponential", "rate": 2e-3},
	    "failstop": {"dist": "weibull", "shape": 0.7, "scale": 1500}
	  }
	}`)
	code, body := postBody(t, ts.URL+"/v1/simulate?config=Hera%2FXScale&n=3&seed=2", doc)
	if code != http.StatusOK {
		t.Fatalf("POST weibull spec: %d\n%s", code, body)
	}
	var out struct {
		Spec   string `json:"spec"`
		N      int    `json:"n"`
		Report struct {
			FinalProgress float64 `json:"FinalProgress"`
		} `json:"report"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Spec != "weibull-smoke" || out.N != 3 {
		t.Errorf("envelope: %+v", out)
	}
	if out.Report.FinalProgress != 500 {
		t.Errorf("final progress %g, want 500", out.Report.FinalProgress)
	}
}

// TestSimulateSpecValidation: the strict surfaces of POST /v1/simulate
// — unknown query parameters and unknown spec fields answer 400 naming
// the offender, csv references are rejected, and bodies past the bound
// answer 413.
func TestSimulateSpecValidation(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	t.Cleanup(ts.Close)
	sp, _ := spec.ByName("cluster-twolevel")
	doc, _ := spec.Canonical(sp)

	errOf := func(body []byte) string {
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("non-JSON error body: %s", body)
		}
		return e.Error
	}

	// Unknown query parameter names the offender.
	code, body := postBody(t, ts.URL+"/v1/simulate?config=Hera%2FXScale&n=4&sseed=1", doc)
	if code != http.StatusBadRequest || !strings.Contains(errOf(body), "sseed") {
		t.Errorf("unknown query param: %d %s", code, body)
	}
	// rho belongs to the GET surface, not the spec surface.
	code, body = postBody(t, ts.URL+"/v1/simulate?config=Hera%2FXScale&rho=3", doc)
	if code != http.StatusBadRequest || !strings.Contains(errOf(body), "rho") {
		t.Errorf("rho on POST: %d %s", code, body)
	}
	// Unknown spec field names the offender.
	bad := bytes.Replace(doc, []byte(`"total_work"`), []byte(`"totalwork"`), 1)
	code, body = postBody(t, ts.URL+"/v1/simulate?config=Hera%2FXScale", bad)
	if code != http.StatusBadRequest || !strings.Contains(errOf(body), "unknown field") {
		t.Errorf("unknown spec field: %d %s", code, body)
	}
	// CSV references have no resolution directory over HTTP.
	csvDoc := []byte(`{
	  "version": 1,
	  "plan": {"w": 50, "sigma1": 0.4, "sigma2": 0.8},
	  "total_work": 500,
	  "faults": {"silent": {"dist": "trace", "csv": "log.csv"}}
	}`)
	code, body = postBody(t, ts.URL+"/v1/simulate?config=Hera%2FXScale", csvDoc)
	if code != http.StatusBadRequest {
		t.Errorf("csv reference accepted: %d %s", code, body)
	}
	// Unknown config answers 404, like the GET surface.
	code, _ = postBody(t, ts.URL+"/v1/simulate?config=NoSuch%2FConfig", doc)
	if code != http.StatusNotFound {
		t.Errorf("unknown config: %d", code)
	}
	// Oversized body answers 413.
	huge := append(bytes.Repeat([]byte(" "), maxSpecBody), doc...)
	code, _ = postBody(t, ts.URL+"/v1/simulate?config=Hera%2FXScale", huge)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d", code)
	}

	// The GET surface is strict too.
	resp, err := http.Get(ts.URL + "/v1/simulate?config=Hera%2FXScale&rho=3&n=100&foo=1")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(errOf(data), "foo") {
		t.Errorf("GET unknown param: %d %s", resp.StatusCode, data)
	}
	// Unsupported methods advertise the full verb set.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/simulate?config=Hera%2FXScale&rho=3", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD, POST" {
		t.Errorf("PUT: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestSpecPatternBoundOnEveryEndpoint: a spec past one of Validate's
// size bounds answers a 400 naming its field on every endpoint that
// accepts a spec, before anything is built. Unbounded, each probe would
// exhaust memory: 1e300 work units of w = 1 never stop appending pattern
// sizes (subtracting w no longer shrinks what remains), and the two
// workloads would allocate 16 TB and 32 GB, as would 2^30 nodes' fault
// state.
func TestSpecPatternBoundOnEveryEndpoint(t *testing.T) {
	m, err := jobs.Open(jobs.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ts := httptest.NewServer(New(Options{Jobs: m, FleetWorker: fleet.NewWorker(fleet.WorkerOptions{})}).Handler())
	t.Cleanup(ts.Close)
	const silent = `"faults": {"silent": {"dist": "exponential", "rate": 1e-3}}`
	for _, p := range []struct{ field, body string }{
		{"total_work", `"total_work": 1e300, ` + silent},
		{"workload.size", `"total_work": 5, "workload": {"kind": "heat2d", "size": 1000000, "alpha": 0.2}, ` + silent},
		{"workload.size", `"total_work": 5, "workload": {"kind": "matvec", "size": 2000000000}, ` + silent},
		{"faults.nodes", `"total_work": 5, "faults": {"failstop": {"dist": "exponential", "rate": 1e-3}, "nodes": 1073741824}`},
	} {
		probe := `{"version": 1, "plan": {"w": 1, "sigma1": 0.4, "sigma2": 0.8}, ` + p.body + `}`
		if _, err := spec.Parse([]byte(probe)); err == nil || !strings.Contains(err.Error(), p.field) {
			t.Fatalf("spec.Parse(%s) = %v; sending a probe it accepts would exhaust memory", probe, err)
		}
		campaign := `{"kind": "spec", "configs": ["Hera/XScale"], "n": 1, "spec": ` + probe + `}`
		for _, c := range []struct{ path, body string }{
			{"/v1/simulate?config=Hera%2FXScale&n=2", probe},
			{"/v1/jobs", campaign},
			{"/v1/shards", `{"campaign": ` + campaign + `, "shard": {"config": "Hera/XScale", "chunk": 0, "lo": 0, "hi": 1}}`},
		} {
			code, body := postBody(t, ts.URL+c.path, []byte(c.body))
			if code != http.StatusBadRequest || !strings.Contains(string(body), p.field) {
				t.Errorf("POST %s with %s: %d %s, want a 400 naming %s", c.path, p.field, code, body, p.field)
			}
		}
	}
}
