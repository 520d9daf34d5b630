package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"respeed/internal/detect"
	"respeed/internal/engine"
	"respeed/internal/spec"
	"respeed/internal/workload"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// maxSpans bounds the in-memory trace; spans past it are counted, not
// kept.
const maxSpans = 1 << 21

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch   time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so children can name a parent that has not
// finished yet.
func (t *tracer) id() int64 { return t.next.Add(1) }

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent int64, op, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// timed runs fn as a root span of op named name and returns its
// duration.
func (t *tracer) timed(op, name string, fn func()) time.Duration {
	id := t.id()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	t.add(id, 0, op, name, t0, t1)
	return t1.Sub(t0)
}

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.named(name) {
		d += s.dur()
	}
	return d
}

// selfTime sums, over the spans named name, each span's duration minus
// the part of its interval that its children cover.
func (t *tracer) selfTime(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	parents := map[int64]span{}
	for _, s := range t.spans {
		if s.Name == name {
			parents[s.ID] = s
		}
	}
	kids := map[int64][][2]int64{}
	for _, s := range t.spans {
		if _, ok := parents[s.Parent]; ok {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var self time.Duration
	for id, p := range parents {
		iv := kids[id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, hi := int64(0), p.Start
		for _, c := range iv {
			lo, end := max(c[0], hi), min(c[1], p.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self += p.dur() - time.Duration(covered)
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appProbe instruments App replays through the engine's public seams
// only: the workload kernel is wrapped with engine.NewRunner and the
// FNV-64a detector with a timing detect.Detector, so every Advance,
// State, Restore and digest becomes a span under the current replay's
// span (op, parent) while the simulation stays bit-identical. Replays
// run one at a time on one goroutine; the byte totals span all of them.
type appProbe struct {
	t      *tracer
	op     string
	parent int64

	stateBytes  atomic.Int64
	digestBytes atomic.Int64
}

func (p *appProbe) leaf(name string, t0 time.Time) {
	p.t.add(p.t.id(), p.parent, p.op, name, t0, time.Now())
}

// runner wraps a workload kernel.
func (p *appProbe) runner(w workload.Workload) *engine.Runner {
	return engine.NewRunner(w.Name(),
		func(units float64) {
			t0 := time.Now()
			w.Advance(units)
			p.leaf("workload.advance", t0)
		},
		w.Progress,
		func() []byte {
			t0 := time.Now()
			b := w.State()
			p.leaf("workload.state", t0)
			p.stateBytes.Add(int64(len(b)))
			return b
		},
		func(b []byte) error {
			t0 := time.Now()
			err := w.Restore(b)
			p.leaf("workload.restore", t0)
			p.stateBytes.Add(int64(len(b)))
			return err
		},
		func() *engine.Runner { return p.runner(w.Clone()) })
}

// Name implements detect.Detector.
func (p *appProbe) Name() string { return detect.FNV64{}.Name() }

// Sum implements detect.Detector around FNV-64a.
func (p *appProbe) Sum(state []byte) detect.Digest {
	t0 := time.Now()
	d := detect.FNV64{}.Sum(state)
	p.leaf("detect.digest", t0)
	p.digestBytes.Add(int64(len(state)))
	return d
}

// kernel builds the workload kernel a spec's workload section names,
// with the defaults spec.Compile applies.
func kernel(sp spec.ScenarioSpec) (workload.Workload, error) {
	w := sp.Workload
	if w == nil {
		return workload.NewStream(7, 64), nil
	}
	switch w.Kind {
	case "stream":
		return workload.NewStream(w.Seed, w.Size), nil
	case "heat":
		return workload.NewHeat(w.Size, w.Alpha), nil
	case "heat2d":
		return workload.NewHeat2D(w.Size, w.Alpha), nil
	case "matvec":
		return workload.NewMatVec(w.Size), nil
	}
	return nil, fmt.Errorf("unknown workload kind %q", w.Kind)
}

// probed returns sc with its workload and detector wrapped by p and
// its engine counters directed at ctr.
func (p *appProbe) probed(sc engine.Scenario, sp spec.ScenarioSpec, ctr *engine.Counters) (engine.Scenario, error) {
	if _, err := kernel(sp); err != nil {
		return engine.Scenario{}, err
	}
	sc.NewWorkload = func() *engine.Runner {
		k, _ := kernel(sp)
		return p.runner(k)
	}
	sc.Detector = p
	sc.Obs.Counters = ctr
	return sc, nil
}

// appShares splits the App time of the replay spans named parent into
// workload stepping, state serialization, digests and the remainder.
type appShares struct {
	total, advance, serialize, digest, self time.Duration
	runs                                    int64
	stateBytes, digestBytes                 int64
	counters                                engine.CountersSnapshot
}

func (t *tracer) appShares(parent string) appShares {
	var a appShares
	a.total = t.total(parent)
	a.advance = t.total("workload.advance")
	st := t.total("workload.state")
	rs := t.total("workload.restore")
	a.serialize = st + rs
	a.digest = t.total("detect.digest")
	a.self = t.selfTime(parent)
	return a
}

// metrics reports an App split as per-layer metrics.
func (a appShares) metrics(m map[string]metric) {
	share := func(d time.Duration) float64 {
		if a.total <= 0 {
			return 0
		}
		return float64(d) / float64(a.total)
	}
	perRun := func(x float64) float64 {
		if a.runs == 0 {
			return 0
		}
		return x / float64(a.runs)
	}
	c := a.counters
	m["workload.advance_share"] = metric{share(a.advance), "ratio"}
	m["workload.serialize_share"] = metric{share(a.serialize), "ratio"}
	m["detect.digest_share"] = metric{share(a.digest), "ratio"}
	m["engine.app_self_share"] = metric{share(a.self), "ratio"}
	m["detect.vc_share"] = metric{share(a.digest + a.serialize), "ratio"}
	m["workload.state_kb_per_run"] = metric{perRun(float64(a.stateBytes) / 1024), "KiB"}
	m["detect.digest_kb_per_run"] = metric{perRun(float64(a.digestBytes) / 1024), "KiB"}
	nsPerKB := 0.0
	if a.digestBytes > 0 {
		nsPerKB = float64(a.digest) / (float64(a.digestBytes) / 1024)
	}
	m["detect.digest_ns_per_kb"] = metric{nsPerKB, "ns/KiB"}
	m["engine.attempts_per_run"] = metric{perRun(float64(c.Attempts)), "count/run"}
	m["engine.patterns_per_run"] = metric{perRun(float64(c.Patterns)), "count/run"}
	m["engine.recoveries_per_run"] = metric{perRun(float64(c.Recoveries)), "count/run"}
	m["faults.silent_per_run"] = metric{perRun(float64(c.SilentErrors)), "count/run"}
	m["faults.failstop_per_run"] = metric{perRun(float64(c.FailStopErrors)), "count/run"}
	useful := 0.0
	if c.Attempts > 0 {
		useful = float64(c.Patterns) / float64(c.Attempts)
	}
	m["engine.useful_attempt_ratio"] = metric{useful, "count/count"}
}
