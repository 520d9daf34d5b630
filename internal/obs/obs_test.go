package obs

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
)

func mustParse(t *testing.T, data []byte) *Exposition {
	t.Helper()
	exp, err := ParseExposition(data)
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, data)
	}
	return exp
}

func scrape(t *testing.T, r *Registry) *Exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return mustParse(t, buf.Bytes())
}

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Requests served.")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters only go up

	gv := r.NewGaugeVec(Opts{Name: "test_temp", Help: "Temps.", Labels: []string{"site"}})
	gv.With(`a"b\c` + "\nd").Set(-2.5)
	gv.With("plain").Add(7)

	r.NewGaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 42 })

	hv := r.NewHistogramVec(Opts{Name: "test_latency_seconds", Help: "Latency.",
		Labels: []string{"ep"}}, []float64{0.1, 1, 10})
	h := hv.With("/solve")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}

	exp := scrape(t, r)

	if got, _ := exp.Value("test_requests_total", nil); got != 4 {
		t.Errorf("counter = %v, want 4", got)
	}
	if got, _ := exp.Value("test_temp", map[string]string{"site": `a"b\c` + "\nd"}); got != -2.5 {
		t.Errorf("escaped-label gauge = %v, want -2.5", got)
	}
	if got, _ := exp.Value("test_uptime_seconds", nil); got != 42 {
		t.Errorf("gauge func = %v, want 42", got)
	}
	lbl := map[string]string{"ep": "/solve"}
	for le, want := range map[string]float64{"0.1": 1, "1": 3, "10": 4, "+Inf": 5} {
		got, err := exp.Value("test_latency_seconds_bucket",
			map[string]string{"ep": "/solve", "le": le})
		if err != nil || got != want {
			t.Errorf("bucket le=%s = %v (%v), want %v", le, got, err, want)
		}
	}
	if got, _ := exp.Value("test_latency_seconds_count", lbl); got != 5 {
		t.Errorf("hist count = %v, want 5", got)
	}
	if got, _ := exp.Value("test_latency_seconds_sum", lbl); math.Abs(got-56.05) > 1e-9 {
		t.Errorf("hist sum = %v, want 56.05", got)
	}
	if exp.Types["test_latency_seconds"] != KindHistogram {
		t.Errorf("TYPE = %q, want histogram", exp.Types["test_latency_seconds"])
	}
}

func TestRegistryReRegisterAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("dup_total", "Dup.")
	b := r.NewCounter("dup_total", "Dup.")
	a.Inc()
	b.Inc()
	if got, _ := scrape(t, r).Value("dup_total", nil); got != 2 {
		t.Errorf("re-registered counter = %v, want 2 (same series)", got)
	}

	for name, fn := range map[string]func(){
		"kind":       func() { r.NewGauge("dup_total", "Dup.") },
		"labels":     func() { r.NewCounterVec(Opts{Name: "dup_total", Help: "Dup.", Labels: []string{"x"}}) },
		"bad name":   func() { r.NewCounter("0bad", "Bad.") },
		"le label":   func() { r.NewCounterVec(Opts{Name: "ok_total", Help: "x", Labels: []string{"le"}}) },
		"bad label":  func() { r.NewCounterVec(Opts{Name: "ok_total", Help: "x", Labels: []string{"0x"}}) },
		"bad bucket": func() { r.NewHistogramVec(Opts{Name: "ok_h", Help: "x"}, []float64{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: registration did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNilRegistryNoops(t *testing.T) {
	var r *Registry
	r.NewCounter("x_total", "x").Inc()
	r.NewGauge("g", "g").Set(1)
	r.NewGaugeFunc("f", "f", func() float64 { return 1 })
	r.NewHistogramVec(Opts{Name: "h", Help: "h"}, []float64{1}).With().Observe(1)
	r.RegisterHistogram(Opts{Name: "h2", Help: "h"}, NewHistogram([]float64{1}))
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry wrote %q, err %v", buf.String(), err)
	}
}

func TestRegisterHistogramAdoptsExternal(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	r.RegisterHistogram(Opts{Name: "ext_seconds", Help: "Ext.", Labels: []string{"k"}}, h, "v")
	h.Observe(1.5) // observed after adoption must still show up
	exp := scrape(t, r)
	if got, _ := exp.Value("ext_seconds_count", map[string]string{"k": "v"}); got != 2 {
		t.Errorf("adopted histogram count = %v, want 2", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cc_total", "x")
	h := r.NewHistogramVec(Opts{Name: "ch_seconds", Help: "x"}, DurationBuckets()).With()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.01)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := 0; j < 50; j++ {
				buf.Reset()
				if err := r.WritePrometheus(&buf); err != nil {
					t.Errorf("concurrent write: %v", err)
					return
				}
				if _, err := ParseExposition(buf.Bytes()); err != nil {
					t.Errorf("concurrent parse: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %v, want 8000", got)
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no trailing newline":  "# TYPE a counter\na 1",
		"undeclared family":    "a 1\n",
		"duplicate TYPE":       "# TYPE a counter\n# TYPE a counter\na 1\n",
		"duplicate HELP":       "# HELP a x\n# HELP a y\n# TYPE a counter\na 1\n",
		"unknown TYPE":         "# TYPE a widget\na 1\n",
		"duplicate series":     "# TYPE a counter\na{x=\"1\"} 1\na{x=\"1\"} 2\n",
		"dup reordered labels": "# TYPE a counter\na{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2\n",
		"bad value":            "# TYPE a counter\na one\n",
		"bad escape":           "# TYPE a counter\na{x=\"\\t\"} 1\n",
		"unterminated labels":  "# TYPE a counter\na{x=\"1\" 1\n",
		"unquoted label":       "# TYPE a counter\na{x=1} 1\n",
		"duplicate label":      "# TYPE a counter\na{x=\"1\",x=\"2\"} 1\n",
		"bad metric name":      "# TYPE 0a counter\n0a 1\n",
		"hist without +Inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"hist not cumulative":  "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"hist count mismatch":  "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"hist missing count":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\n",
		"hist bucket no le":    "# TYPE h histogram\nh_bucket 3\nh_sum 1\nh_count 3\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition([]byte(in)); err == nil {
			t.Errorf("%s: parser accepted %q", name, in)
		}
	}
}

func TestParserAcceptsValidForms(t *testing.T) {
	in := "# a free-form comment\n" +
		"# HELP a Total things with a \\\\ backslash and \\n newline.\n" +
		"# TYPE a counter\n" +
		"a{x=\"v\\\"q\\\\w\\ne\"} 1 1700000000000\n" +
		"\n" +
		"# TYPE g gauge\n" +
		"g +Inf\n" +
		"# TYPE n gauge\n" +
		"n NaN\n"
	exp := mustParse(t, []byte(in))
	if got, _ := exp.Value("a", map[string]string{"x": "v\"q\\w\ne"}); got != 1 {
		t.Errorf("escaped label sample = %v, want 1", got)
	}
	if got, _ := exp.Value("g", nil); !math.IsInf(got, 1) {
		t.Errorf("g = %v, want +Inf", got)
	}
	if vs := exp.Find("n"); len(vs) != 1 || !math.IsNaN(vs[0].Value) {
		t.Errorf("n = %+v, want one NaN sample", vs)
	}
}

// TestExpositionFile validates an exposition scraped from a live
// respeedd by the CI smoke step (OBS_EXPOSITION_FILE set by CI).
func TestExpositionFile(t *testing.T) {
	path := os.Getenv("OBS_EXPOSITION_FILE")
	if path == "" {
		t.Skip("OBS_EXPOSITION_FILE not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	exp := mustParse(t, data)
	for _, want := range []string{
		"respeed_engine_patterns_total",      // engine-level series
		"respeed_jobs_shards_executed_total", // jobs-level series
		"respeed_http_requests_total",
	} {
		if len(exp.Find(want)) == 0 {
			t.Errorf("scrape lacks %s", want)
		}
	}
}

func TestTracerSpans(t *testing.T) {
	tr := NewTracer(2)
	ctx := WithTracer(context.Background(), tr)
	ctx = WithRequestID(ctx, "req-1")

	ctx1, root := StartSpan(ctx, "request")
	if root == nil {
		t.Fatal("root span nil with tracer in context")
	}
	root.Annotate("endpoint", "/v1/solve")
	ctx2, child := StartSpan(ctx1, "solve")
	_, grand := StartSpan(ctx2, "engine")
	grand.End()
	child.End()
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	r0 := roots[0]
	if r0.Name != "request" || r0.ID != "req-1" || r0.Attrs["endpoint"] != "/v1/solve" {
		t.Errorf("root = %+v", r0)
	}
	if len(r0.Children) != 1 || r0.Children[0].Name != "solve" {
		t.Fatalf("children = %+v", r0.Children)
	}
	if len(r0.Children[0].Children) != 1 || r0.Children[0].Children[0].Name != "engine" {
		t.Errorf("grandchildren = %+v", r0.Children[0].Children)
	}
	if r0.DurationMS < 0 || r0.InFlight {
		t.Errorf("root duration/in-flight = %v/%v", r0.DurationMS, r0.InFlight)
	}

	// Ring bound: 3 more roots on a cap-2 tracer keeps the latest 2.
	for i := 0; i < 3; i++ {
		_, s := StartSpan(ctx, "later")
		s.End()
	}
	if got := tr.Roots(); len(got) != 2 || got[1].Name != "later" {
		t.Errorf("ring = %d roots (%+v), want 2 latest", len(got), got)
	}
	if tr.Total() != 4 {
		t.Errorf("total = %d, want 4", tr.Total())
	}
}

func TestSpanNoopWithoutTracer(t *testing.T) {
	ctx, s := StartSpan(context.Background(), "orphan")
	if s != nil {
		t.Fatal("expected nil span without tracer or parent")
	}
	s.Annotate("k", "v")
	s.End()
	// nested StartSpan off a disabled context stays disabled
	if _, s2 := StartSpan(ctx, "child"); s2 != nil {
		t.Fatal("expected nil child span")
	}
	var tr *Tracer
	if tr.Roots() != nil || tr.Total() != 0 {
		t.Error("nil tracer not a no-op")
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Errorf("ids %q %q: want distinct 16-hex", a, b)
	}
	ctx := WithRequestID(context.Background(), a)
	if RequestIDFrom(ctx) != a {
		t.Error("request id round-trip failed")
	}
	if RequestIDFrom(context.Background()) != "" {
		t.Error("empty context should have no request id")
	}
}

func TestLoggers(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, "warn", "json")
	lg.Info("hidden")
	lg.Warn("shown", "k", 1)
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, `"shown"`) {
		t.Errorf("log output %q", out)
	}
	if !strings.HasPrefix(strings.TrimSpace(out), "{") {
		t.Errorf("json format not used: %q", out)
	}
	buf.Reset()
	NewLogger(&buf, "info", "text").Info("text-line", "k", "v")
	if !strings.Contains(buf.String(), "text-line") {
		t.Errorf("text log output %q", buf.String())
	}
	NopLogger().Error("dropped") // must not panic
	if ParseLogLevel("verbose") == nil || ParseLogLevel("debug") != nil {
		t.Error("ParseLogLevel validation wrong")
	}
	if ParseLogFormat("yaml") == nil || ParseLogFormat("json") != nil {
		t.Error("ParseLogFormat validation wrong")
	}
}

func TestBuildInfoAndDebugHandler(t *testing.T) {
	bi := ReadBuildInfo()
	if bi.GoVersion == "" {
		t.Error("BuildInfo.GoVersion empty (ReadBuildInfo should populate under go test)")
	}
	if DebugHandler() == nil {
		t.Error("DebugHandler nil")
	}
}

func TestHistogramMinMax(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if s := h.Snapshot(); s.Min != 0 || s.Max != 0 {
		t.Errorf("empty extremes = %g, %g; want 0, 0", s.Min, s.Max)
	}
	for _, v := range []float64{1.5, -3, 7, 0.25} {
		h.Observe(v)
	}
	if s := h.Snapshot(); s.Min != -3 || s.Max != 7 {
		t.Errorf("extremes = %g, %g; want -3, 7", s.Min, s.Max)
	}
	// The extremes feed Quantile only; the exposition prints no series
	// for them.
	r := NewRegistry()
	r.RegisterHistogram(Opts{Name: "mm_seconds", Help: "x"}, h)
	for _, s := range scrape(t, r).Samples {
		if s.Name != "mm_seconds_bucket" && s.Name != "mm_seconds_sum" && s.Name != "mm_seconds_count" {
			t.Errorf("unexpected sample %s", s.Name)
		}
	}
}

func TestHistogramEdgeValue(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(2) // a value on the last bound belongs to it, not to +Inf
	if s := h.Snapshot(); s.Cumulative[1] != 1 || s.Count != 1 {
		t.Errorf("edge value misbucketed: %+v", s)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	s := NewHistogram(DurationBuckets()).Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); !math.IsNaN(got) {
			t.Errorf("Quantile(%g) on empty histogram = %g, want NaN", q, got)
		}
	}
}

func TestHistogramQuantileSingle(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	h.Observe(3.2e-3)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 3.2e-3 {
			t.Errorf("Quantile(%g) = %g, want the single observation 3.2e-3", q, got)
		}
	}
}

func TestHistogramQuantileClamped(t *testing.T) {
	// Two observations in the first bucket, one above the last bound:
	// the median interpolates inside the first bucket, and a rank in the
	// +Inf bucket answers the last finite bound.
	h := NewHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 0.7, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 0.75 {
		t.Errorf("median = %g, want 0.75", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %g, want the last bound 10", got)
	}
	// Every observation above the last bound: the last bound lies below
	// Min, so every quantile clamps to Min.
	h2 := NewHistogram([]float64{1, 10})
	h2.Observe(40)
	h2.Observe(99)
	s2 := h2.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s2.Quantile(q); got != 40 {
			t.Errorf("all-over Quantile(%g) = %g, want Min=40", q, got)
		}
	}
	// Clamped from above: one observation just past a bound cannot read
	// the interpolated 1.
	h3 := NewHistogram([]float64{0.5, 1})
	h3.Observe(0.6)
	h3.Observe(0.6)
	if got := h3.Snapshot().Quantile(1); got != 0.6 {
		t.Errorf("Quantile(1) = %g, want Max=0.6", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram(DurationBuckets())
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			h.Observe(math.Exp(3*rng.NormFloat64() - 7)) // spills past both edges
		}
		s := h.Snapshot()
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.01 {
			got := s.Quantile(q)
			if math.IsNaN(got) {
				t.Fatalf("trial %d: Quantile(%g) = NaN on non-empty histogram", trial, q)
			}
			if got < prev {
				t.Fatalf("trial %d: Quantile(%g) = %g < Quantile at lower level %g", trial, q, got, prev)
			}
			if got < s.Min || got > s.Max {
				t.Fatalf("trial %d: Quantile(%g) = %g outside [%g,%g]", trial, q, got, s.Min, s.Max)
			}
			prev = got
		}
	}
}
