package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, matching the Prometheus TYPE keyword.
type Kind string

// Metric family kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Opts names a metric family: its name, HELP text and label names.
type Opts struct {
	Name   string
	Help   string
	Labels []string
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families and renders them as Prometheus text
// exposition. Registration panics on malformed or conflicting
// definitions (programmer errors); observation methods never panic.
// A nil *Registry is valid: every registration returns nil instruments,
// which are themselves valid no-op receivers.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric family: a name, help, kind and its series.
type family struct {
	opts        Opts
	kind        Kind
	histBuckets []float64 // histogram families: shared upper bounds
	mu          sync.Mutex
	series      map[string]*series // key: joined label values
}

// series is one labeled time series of a family.
type series struct {
	labelValues []string
	bits        atomic.Uint64  // counter/gauge value as float64 bits
	fn          func() float64 // read-time value; overrides bits when set
	hist        *Histogram     // histogram series only
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// register creates or re-opens a family, enforcing one (name, kind,
// labels) definition per registry.
func (r *Registry) register(o Opts, kind Kind) *family {
	if !metricNameRe.MatchString(o.Name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", o.Name))
	}
	for _, l := range o.Labels {
		if !labelNameRe.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, o.Name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[o.Name]; ok {
		if f.kind != kind || !equalStrings(f.opts.Labels, o.Labels) {
			panic(fmt.Sprintf("obs: conflicting redefinition of metric %q", o.Name))
		}
		return f
	}
	f := &family{opts: o, kind: kind, series: make(map[string]*series)}
	r.families[o.Name] = f
	return f
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

// with returns the series for the given label values, creating it on
// first use. One (family, values) pair maps to exactly one series, so
// duplicate series are impossible by construction.
func (f *family) with(values []string) *series {
	if len(values) != len(f.opts.Labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.opts.Name, len(f.opts.Labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		s.hist = newHistogram(f.histBuckets)
	}
	f.series[key] = s
	return s
}

// labelKey joins label values unambiguously (values may contain commas).
func labelKey(values []string) string {
	key := ""
	for _, v := range values {
		key += fmt.Sprintf("%d:%s|", len(v), v)
	}
	return key
}

// --- counters ---

// Counter is a monotonically increasing value. Nil receivers no-op.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored: counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || c.s == nil || v < 0 {
		return
	}
	addFloatBits(&c.s.bits, v)
}

// Value reads the current value.
func (c *Counter) Value() float64 {
	if c == nil || c.s == nil {
		return 0
	}
	return math.Float64frombits(c.s.bits.Load())
}

// CounterVec is a family of labeled counters.
type CounterVec struct{ f *family }

// NewCounterVec registers a counter family.
func (r *Registry) NewCounterVec(o Opts) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(o, KindCounter)}
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.NewCounterVec(Opts{Name: name, Help: help}).With()
}

// NewCounterFunc registers an unlabeled counter read from fn at scrape
// time (fn must be monotonically non-decreasing).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.NewCounterVec(Opts{Name: name, Help: help}).WithFunc(fn)
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return &Counter{s: v.f.with(values)}
}

// WithFunc binds the series for the given label values to a read-time
// function (for exporting externally-maintained cumulative state).
func (v *CounterVec) WithFunc(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.setFunc(fn, values)
}

// --- gauges ---

// Gauge is a value that can go up and down. Nil receivers no-op.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.bits.Store(math.Float64bits(v))
}

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil || g.s == nil {
		return
	}
	addFloatBits(&g.s.bits, v)
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil || g.s == nil {
		return 0
	}
	return math.Float64frombits(g.s.bits.Load())
}

// GaugeVec is a family of labeled gauges.
type GaugeVec struct{ f *family }

// NewGaugeVec registers a gauge family.
func (r *Registry) NewGaugeVec(o Opts) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(o, KindGauge)}
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.NewGaugeVec(Opts{Name: name, Help: help}).With()
}

// NewGaugeFunc registers an unlabeled gauge read from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.NewGaugeVec(Opts{Name: name, Help: help}).WithFunc(fn)
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return &Gauge{s: v.f.with(values)}
}

// WithFunc binds the series for the given label values to a read-time
// function.
func (v *GaugeVec) WithFunc(fn func() float64, values ...string) {
	if v == nil {
		return
	}
	v.f.setFunc(fn, values)
}

// setFunc binds a series to a read-time function under the family lock.
func (f *family) setFunc(fn func() float64, values []string) {
	s := f.with(values)
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// --- histograms ---

// Histogram counts observations into cumulative ≤-buckets and tracks
// their sum, Prometheus-style, plus their extremes, which the
// exposition does not print but Quantile clamps to. Nil receivers
// no-op.
type Histogram struct {
	mu       sync.Mutex
	uppers   []float64 // sorted upper bounds, +Inf excluded
	counts   []uint64  // per-bucket (non-cumulative) counts
	overInf  uint64    // observations above the last bound
	sum      float64
	n        uint64
	min, max float64 // valid once n > 0
}

func newHistogram(uppers []float64) *Histogram {
	return &Histogram{uppers: uppers, counts: make([]uint64, len(uppers))}
}

// NewHistogram creates a standalone histogram (not tied to a registry)
// with the given upper bucket bounds; +Inf is implicit. Bounds must be
// strictly increasing.
func NewHistogram(uppers []float64) *Histogram {
	validateBuckets(uppers)
	return newHistogram(append([]float64(nil), uppers...))
}

func validateBuckets(uppers []float64) {
	if len(uppers) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(uppers); i++ {
		if !(uppers[i] > uppers[i-1]) {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if h.n == 1 || v > h.max {
		h.max = v
	}
	for i, up := range h.uppers {
		if v <= up {
			h.counts[i]++
			return
		}
	}
	h.overInf++
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Uppers     []float64 // upper bounds, +Inf excluded
	Cumulative []uint64  // cumulative counts per bound
	Sum        float64
	Count      uint64
	Min, Max   float64 // extremes of the observations; 0 when Count is 0
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) as Prometheus's
// histogram_quantile does: it finds the bucket holding rank q·Count and
// interpolates linearly inside it, taking 0 as the first bucket's lower
// edge and the last finite bound for a rank in the +Inf bucket. The
// estimate is then clamped to [Min, Max], which the buckets cannot
// resolve. It returns NaN on an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	b := sort.Search(len(s.Cumulative), func(i int) bool {
		return s.Cumulative[i] > 0 && float64(s.Cumulative[i]) >= rank
	})
	v := s.Uppers[len(s.Uppers)-1]
	if b < len(s.Cumulative) {
		lo, below := 0.0, uint64(0)
		if b > 0 {
			lo, below = s.Uppers[b-1], s.Cumulative[b-1]
		}
		v = lo + (s.Uppers[b]-lo)*(rank-float64(below))/float64(s.Cumulative[b]-below)
	}
	return min(max(v, s.Min), s.Max)
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistogramSnapshot{
		Uppers:     append([]float64(nil), h.uppers...),
		Cumulative: make([]uint64, len(h.counts)),
		Sum:        h.sum,
		Count:      h.n,
		Min:        h.min,
		Max:        h.max,
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		snap.Cumulative[i] = cum
	}
	return snap
}

// HistogramVec is a family of labeled histograms sharing one bucket
// layout.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a histogram family over the given upper
// bucket bounds (+Inf implicit).
func (r *Registry) NewHistogramVec(o Opts, uppers []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	validateBuckets(uppers)
	f := r.register(o, KindHistogram)
	f.histBuckets = append([]float64(nil), uppers...)
	return &HistogramVec{f: f}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.with(values).hist
}

// RegisterHistogram adopts an externally-owned standalone histogram as
// a labeled series of a histogram family, so a subsystem can keep
// observing its own histogram while the registry exports it.
func (r *Registry) RegisterHistogram(o Opts, h *Histogram, values ...string) {
	if r == nil || h == nil {
		return
	}
	h.mu.Lock()
	uppers := append([]float64(nil), h.uppers...)
	h.mu.Unlock()
	f := r.register(o, KindHistogram)
	f.histBuckets = uppers
	s := f.with(values)
	f.mu.Lock()
	s.hist = h
	f.mu.Unlock()
}

// DurationBuckets is a general-purpose latency bucket layout in
// seconds, from 1 µs to 30 s: a cached plan answer spends a few
// microseconds in its handler.
func DurationBuckets() []float64 {
	return []float64{1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
		5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
		2.5, 5, 10, 30}
}

// addFloatBits atomically adds v to a float64 stored as uint64 bits.
func addFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// gather returns the families sorted by name, each series sorted by
// label values — the stable exposition order.
func (r *Registry) gather() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(a, b int) bool { return fams[a].opts.Name < fams[b].opts.Name })
	return fams
}
