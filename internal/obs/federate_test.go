package obs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestAttachRemote checks that grafted remote snapshots appear as
// children in the span's snapshot, are bounded like live children, and
// that nil receivers no-op.
func TestAttachRemote(t *testing.T) {
	tr := NewTracer(4)
	ctx := WithTracer(context.Background(), tr)
	_, root := StartSpan(ctx, "dispatch")
	root.AttachRemote(SpanSnapshot{Name: "remote-shard", ID: "abc",
		Attrs: map[string]string{"peer": "http://w1"}})
	root.End()

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("Roots() = %d, want 1", len(roots))
	}
	if len(roots[0].Children) != 1 {
		t.Fatalf("children = %d, want 1 grafted remote", len(roots[0].Children))
	}
	got := roots[0].Children[0]
	if got.Name != "remote-shard" || got.Attrs["peer"] != "http://w1" {
		t.Fatalf("grafted child = %+v", got)
	}

	var nilSpan *Span
	nilSpan.AttachRemote(SpanSnapshot{Name: "x"}) // must not panic
	if snap := nilSpan.Snapshot(); snap.Name != "" {
		t.Fatalf("nil span Snapshot = %+v, want zero", snap)
	}

	// Remote attachments share the child bound.
	_, big := StartSpan(ctx, "big")
	for i := 0; i < maxChildren+10; i++ {
		big.AttachRemote(SpanSnapshot{Name: "r"})
	}
	big.End()
	snap := big.Snapshot()
	if len(snap.Children) != maxChildren {
		t.Fatalf("children = %d, want bound %d", len(snap.Children), maxChildren)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
}

// buildRandomRegistry populates a registry with a seeded-random mix of
// counters, gauges (some with a clashing `peer` label) and histograms.
func buildRandomRegistry(t *testing.T, rng *rand.Rand, tag string) *Registry {
	t.Helper()
	r := NewRegistry()
	nFam := 1 + rng.Intn(5)
	for f := 0; f < nFam; f++ {
		name := fmt.Sprintf("test_%s_fam%d", tag, f)
		// Kind must be a function of the name, not the rng: families
		// shared across peers have to agree on TYPE.
		kindOf := 0
		for _, c := range name {
			kindOf += int(c)
		}
		switch kindOf % 3 {
		case 0:
			v := r.NewCounterVec(Opts{Name: name, Help: "counter " + name, Labels: []string{"shard"}})
			for s := 0; s <= rng.Intn(3); s++ {
				v.With(fmt.Sprintf("s%d", s)).Add(float64(rng.Intn(1000)))
			}
		case 1:
			// A peer-labeled gauge exercises the exported_peer rename.
			v := r.NewGaugeVec(Opts{Name: name, Help: "gauge " + name, Labels: []string{"peer"}})
			for s := 0; s <= rng.Intn(3); s++ {
				v.With(fmt.Sprintf("http://inner%d", s)).Set(rng.Float64() * 100)
			}
		default:
			h := r.NewHistogramVec(Opts{Name: name, Help: "hist " + name, Labels: []string{"op"}},
				[]float64{0.1, 1, 10})
			for s := 0; s <= rng.Intn(2); s++ {
				hh := h.With(fmt.Sprintf("op%d", s))
				for o := 0; o < rng.Intn(20); o++ {
					hh.Observe(rng.Float64() * 20)
				}
			}
		}
	}
	return r
}

// TestFederationRoundTrip is the federation merge property test: for
// seeded-random peer expositions — including families shared across
// peers and samples already carrying a `peer` label — the merged output
// must re-parse under the strict parser, keep HELP/TYPE once per
// family, never duplicate a (name, labelset), and preserve every
// sample of every source with the peer label applied.
func TestFederationRoundTrip(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		nPeers := 1 + rng.Intn(4)
		var sources []FederatedSource
		total := 0
		type wantSample struct {
			name  string
			peer  string
			value float64
		}
		var wants []wantSample
		for p := 0; p < nPeers; p++ {
			// Half the peers share a family tag to force HELP/TYPE merging.
			tag := fmt.Sprintf("p%d", p)
			if p%2 == 1 {
				tag = "shared"
			}
			reg := buildRandomRegistry(t, rng, tag)
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatalf("trial %d: render peer %d: %v", trial, p, err)
			}
			exp, err := ParseExposition(buf.Bytes())
			if err != nil {
				t.Fatalf("trial %d: parse peer %d: %v", trial, p, err)
			}
			peer := fmt.Sprintf("http://peer%d", p)
			sources = append(sources, FederatedSource{Peer: peer, Exp: exp})
			total += len(exp.Samples)
			for _, s := range exp.Samples {
				wants = append(wants, wantSample{name: s.Name, peer: peer, value: s.Value})
			}
		}

		var merged bytes.Buffer
		if err := WriteFederated(&merged, sources); err != nil {
			t.Fatalf("trial %d: federate: %v", trial, err)
		}
		// Strict re-parse enforces: TYPE before samples, at most one
		// HELP/TYPE per family, no duplicate (name, labelset), histogram
		// invariants intact.
		out, err := ParseExposition(merged.Bytes())
		if err != nil {
			t.Fatalf("trial %d: merged exposition does not strict-parse: %v\n%s",
				trial, err, merged.String())
		}
		if len(out.Samples) != total {
			t.Fatalf("trial %d: merged has %d samples, sources had %d (dropped data)",
				trial, len(out.Samples), total)
		}
		for _, s := range out.Samples {
			if s.Labels["peer"] == "" {
				t.Fatalf("trial %d: merged sample %s lacks a peer label", trial, s.Name)
			}
		}
		// Every source sample survives under its peer, value intact.
		type key struct {
			name, peer string
			value      float64
		}
		got := make(map[key]int)
		for _, s := range out.Samples {
			got[key{s.Name, s.Labels["peer"], s.Value}]++
		}
		for _, w := range wants {
			k := key{w.name, w.peer, w.value}
			if got[k] == 0 {
				t.Fatalf("trial %d: sample %s{peer=%s}=%g missing from merge", trial, w.name, w.peer, w.value)
			}
			got[k]--
		}
	}
}

// TestFederationExportedPeerCollision: federation shifts a sample's
// peer, exported_peer, … labels one exported_ further. Moving only peer
// would merge m{peer="a"} and m{exported_peer="a"} into one series, and
// overwriting exported_peer would lose "b" from the third line.
func TestFederationExportedPeerCollision(t *testing.T) {
	exp, err := ParseExposition([]byte("# TYPE m gauge\nm{peer=\"a\"} 1\nm{exported_peer=\"a\"} 2\n" +
		"m{exported_peer=\"b\",peer=\"c\"} 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFederated(&buf, []FederatedSource{{Peer: "p", Exp: exp}}); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE m gauge\n" +
		"m{exported_peer=\"a\",peer=\"p\"} 1\n" +
		"m{exported_exported_peer=\"a\",peer=\"p\"} 2\n" +
		"m{exported_exported_peer=\"b\",exported_peer=\"c\",peer=\"p\"} 3\n"
	if buf.String() != want {
		t.Fatalf("federated:\n%s\nwant:\n%s", buf.String(), want)
	}
	if _, err := ParseExposition(buf.Bytes()); err != nil {
		t.Fatalf("federated exposition does not strict-parse: %v", err)
	}
}

// FuzzFederate: whatever ParseExposition accepts federates under a peer
// into an exposition that strict-parses again, with the same samples
// and values.
func FuzzFederate(f *testing.F) {
	f.Add([]byte("# TYPE m gauge\nm{peer=\"a\"} 1\nm{exported_peer=\"a\"} 2\n"))
	f.Add([]byte("# HELP c_total Requests.\n# TYPE c_total counter\nc_total{peer=\"x\",exported_peer=\"y\"} 3\n"))
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := ParseExposition(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFederated(&buf, []FederatedSource{{Peer: "p", Exp: in}}); err != nil {
			t.Fatalf("federate: %v", err)
		}
		out, err := ParseExposition(buf.Bytes())
		if err != nil {
			t.Fatalf("federated exposition does not strict-parse: %v\n%s", err, buf.String())
		}
		if len(out.Samples) != len(in.Samples) {
			t.Fatalf("%d samples in, %d out", len(in.Samples), len(out.Samples))
		}
		type sample struct {
			name string
			bits uint64
		}
		left := map[sample]int{}
		for _, s := range in.Samples {
			left[sample{s.Name, math.Float64bits(s.Value)}]++
		}
		for _, s := range out.Samples {
			if s.Labels["peer"] != "p" {
				t.Fatalf("sample %s lacks peer=p: %v", s.Name, s.Labels)
			}
			left[sample{s.Name, math.Float64bits(s.Value)}]--
		}
		for k, n := range left {
			if n != 0 {
				t.Fatalf("%s = %g: %d more in than out", k.name, math.Float64frombits(k.bits), n)
			}
		}
	})
}

// TestFederationTypeConflict checks that a cross-peer TYPE disagreement
// is a loud error, never a silent drop.
func TestFederationTypeConflict(t *testing.T) {
	a, err := ParseExposition([]byte("# TYPE m counter\nm 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseExposition([]byte("# TYPE m gauge\nm 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = WriteFederated(&buf, []FederatedSource{{Peer: "p1", Exp: a}, {Peer: "p2", Exp: b}})
	if err == nil || !strings.Contains(err.Error(), "family") {
		t.Fatalf("WriteFederated conflict err = %v, want family-kind error", err)
	}
}

// TestFederationVerbatimSource checks that an empty-Peer source merges
// without relabeling (the federator's synthetic scrape-health series).
func TestFederationVerbatimSource(t *testing.T) {
	meta := &Exposition{
		Types: map[string]Kind{"respeed_fleet_scrape_errors_total": KindCounter},
		Help:  map[string]string{"respeed_fleet_scrape_errors_total": "Scrape failures."},
		Samples: []Sample{{Name: "respeed_fleet_scrape_errors_total",
			Labels: map[string]string{"peer": "http://w1"}, Value: 3}},
	}
	var buf bytes.Buffer
	if err := WriteFederated(&buf, []FederatedSource{{Peer: "", Exp: meta}}); err != nil {
		t.Fatal(err)
	}
	out, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("merged verbatim source does not parse: %v\n%s", err, buf.String())
	}
	v, err := out.Value("respeed_fleet_scrape_errors_total", map[string]string{"peer": "http://w1"})
	if err != nil || v != 3 {
		t.Fatalf("verbatim sample = %g, %v; want 3", v, err)
	}
	if _, clash := out.Samples[0].Labels["exported_peer"]; clash {
		t.Fatalf("verbatim source must not be relabeled: %+v", out.Samples[0].Labels)
	}
}

// TestFederationMixedBucketLayouts: peers running different builds may
// bucket one histogram family differently (17 bounds from 100 µs, or
// 23 from 1 µs). Histogram invariants are checked per series, and the
// peer label keeps the two layouts in separate series, so the merge
// still strict-parses with every bucket of both.
func TestFederationMixedBucketLayouts(t *testing.T) {
	layouts := map[string][]float64{
		"http://old": DurationBuckets()[6:],
		"http://new": DurationBuckets(),
	}
	var sources []FederatedSource
	for peer, uppers := range layouts {
		r := NewRegistry()
		h := r.NewHistogramVec(Opts{Name: "respeed_http_request_duration_seconds",
			Help: "Request latency.", Labels: []string{"endpoint"}}, uppers).With("/v1/solve")
		for _, v := range []float64{2e-6, 3e-4, 0.02, 45} {
			h.Observe(v)
		}
		sources = append(sources, FederatedSource{Peer: peer, Exp: scrape(t, r)})
	}
	var merged bytes.Buffer
	if err := WriteFederated(&merged, sources); err != nil {
		t.Fatal(err)
	}
	out, err := ParseExposition(merged.Bytes())
	if err != nil {
		t.Fatalf("mixed layouts do not strict-parse: %v\n%s", err, merged.String())
	}
	buckets := map[string]int{}
	for _, s := range out.Find("respeed_http_request_duration_seconds_bucket") {
		buckets[s.Labels["peer"]]++
	}
	for peer, uppers := range layouts {
		if got, want := buckets[peer], len(uppers)+1; got != want {
			t.Errorf("%s: %d buckets merged, want %d", peer, got, want)
		}
	}
}
