package serve

import (
	"math"
	"time"

	"respeed/internal/admit"
	"respeed/internal/jobs"
)

// LatencySnapshot reports one endpoint's latency distribution in
// milliseconds.
type LatencySnapshot struct {
	MeanMs float64 `json:"mean_ms"`
	MinMs  float64 `json:"min_ms"`
	MaxMs  float64 `json:"max_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// EndpointSnapshot is one endpoint's row in the /metrics report.
type EndpointSnapshot struct {
	Requests    int64           `json:"requests"`
	Errors      int64           `json:"errors"`
	Timeouts    int64           `json:"timeouts"`
	CacheHits   int64           `json:"cache_hits"`
	CacheMisses int64           `json:"cache_misses"`
	HitRate     float64         `json:"hit_rate"`
	Latency     LatencySnapshot `json:"latency"`
}

// LaneSnapshot is one priority lane's point-in-time occupancy.
type LaneSnapshot struct {
	Capacity   int `json:"capacity"`
	QueueBound int `json:"queue_bound"`
	InFlight   int `json:"in_flight"`
	Queued     int `json:"queued"`
}

// AdmissionSnapshot reports the edge-QoS layer: the active admission
// policy, its verdict counters, and per-lane occupancy.
type AdmissionSnapshot struct {
	Policy   string                  `json:"policy"`
	Overload string                  `json:"overload"`
	Admitted int64                   `json:"admitted"`
	Shed     int64                   `json:"shed"`
	Degraded int64                   `json:"degraded"`
	Lanes    map[string]LaneSnapshot `json:"lanes"`
}

// laneSnapshot captures one lane's occupancy.
func laneSnapshot(l *admit.Lane) LaneSnapshot {
	return LaneSnapshot{
		Capacity:   l.Capacity(),
		QueueBound: l.QueueBound(),
		InFlight:   l.InFlight(),
		Queued:     l.Queued(),
	}
}

// MetricsSnapshot is the full /metrics payload.
type MetricsSnapshot struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	CacheEntries   int     `json:"cache_entries"`
	CacheCapacity  int     `json:"cache_capacity"`
	CacheEvictions int64   `json:"cache_evictions"`
	// Admission reports the edge-QoS counters and lane occupancy.
	Admission *AdmissionSnapshot `json:"admission,omitempty"`
	// Fleet reports the daemon's fleet role, shard occupancy and (for
	// coordinators) per-peer health; omitted without a fleet role.
	Fleet *FleetSnapshot `json:"fleet,omitempty"`
	// Jobs carries the campaign manager's per-state gauges; omitted
	// when the server runs without a job manager.
	Jobs      *jobs.Stats                 `json:"jobs,omitempty"`
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
}

// Metrics returns a point-in-time snapshot of the serving counters.
// Every number is read from the registry instruments the Prometheus
// exposition prints, so both formats report the same traffic.
func (s *Server) Metrics() MetricsSnapshot {
	snap := MetricsSnapshot{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		CacheEntries:   s.cache.len(),
		CacheCapacity:  s.opts.CacheSize,
		CacheEvictions: s.cache.evictions(),
		Admission: &AdmissionSnapshot{
			Policy:   s.admission.Name(),
			Overload: s.opts.OverloadMode,
			Admitted: int64(s.admitAdmitted.Value()),
			Shed:     int64(s.admitShed.Value()),
			Degraded: int64(s.admitDegraded.Value()),
			Lanes: map[string]LaneSnapshot{
				s.express.Name(): laneSnapshot(s.express),
				s.heavy.Name():   laneSnapshot(s.heavy),
			},
		},
		Fleet:     s.fleetMetrics(),
		Endpoints: make(map[string]EndpointSnapshot),
	}
	if s.opts.Jobs != nil {
		st := s.opts.Jobs.Stats()
		snap.Jobs = &st
	}
	for name, pe := range s.prom {
		if row, ok := pe.snapshot(); ok {
			snap.Endpoints[name] = row
		}
	}
	return snap
}

// snapshot builds one endpoint's row, or reports false when the
// endpoint has served nothing. Requests is hits + misses rather than
// the requests counter, so a row read during a concurrent scrape still
// adds up. Empty instruments report 0, never NaN, so the payload is
// always valid JSON.
func (pe *promEndpoint) snapshot() (EndpointSnapshot, bool) {
	hits, misses := int64(pe.hits.Value()), int64(pe.misses.Value())
	requests := hits + misses
	if requests == 0 {
		return EndpointSnapshot{}, false
	}
	h := pe.latency.Snapshot()
	return EndpointSnapshot{
		Requests:    requests,
		Errors:      int64(pe.errors.Value()),
		Timeouts:    int64(pe.timeouts.Value()),
		CacheHits:   hits,
		CacheMisses: misses,
		HitRate:     float64(hits) / float64(requests),
		Latency: LatencySnapshot{
			MeanMs: jsonSafeMs(h.Sum / float64(h.Count)),
			MinMs:  jsonSafeMs(h.Min),
			MaxMs:  jsonSafeMs(h.Max),
			P50Ms:  jsonSafeMs(h.Quantile(0.50)),
			P90Ms:  jsonSafeMs(h.Quantile(0.90)),
			P99Ms:  jsonSafeMs(h.Quantile(0.99)),
		},
	}, true
}

// jsonSafeMs converts seconds to milliseconds, mapping NaN/Inf to 0.
func jsonSafeMs(sec float64) float64 {
	if math.IsNaN(sec) || math.IsInf(sec, 0) {
		return 0
	}
	return sec * 1e3
}
