package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"respeed/internal/admit"
	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/obs"
	"respeed/internal/rngx"
	"respeed/internal/trace"
)

// enginePatternLabel is the scenario label value under which the plain
// (non-scenario) pattern simulations of /v1/simulate and
// /v1/simulate/events report their engine counters.
const enginePatternLabel = "pattern"

// promEndpoint is one endpoint's set of registry instruments, which
// back both the Prometheus text and the JSON row of /metrics.
type promEndpoint struct {
	requests *obs.Counter
	errors   *obs.Counter
	timeouts *obs.Counter
	hits     *obs.Counter
	misses   *obs.Counter
	latency  *obs.Histogram
}

// servedEndpoints is the fixed route vocabulary; every instrument is
// registered eagerly at New so series exist (at zero) from the first
// scrape and the hot path never registers.
var servedEndpoints = []string{
	"/healthz", "/metrics", "/debug/traces",
	"/v1/configs", "/v1/solve", "/v1/sigma1-table", "/v1/gain",
	"/v1/simulate", "/v1/simulate/events",
	"/v1/jobs", "/v1/jobs/{id}", "/v1/jobs/{id}/result", "/v1/jobs/{id}/events",
	"/v1/jobs/{id}/trace",
	"/v1/shards", "/v1/fleet/metrics",
}

// initObs builds the server's observability spine: HTTP instruments per
// endpoint, engine counters per scenario label, cache/uptime gauges and
// the request-trace ring.
func (s *Server) initObs() {
	r := s.opts.Registry
	s.obsReg = r
	s.log = s.opts.Logger
	s.tracer = s.opts.Tracer
	if s.tracer == nil {
		s.tracer = obs.NewTracer(s.opts.TraceCapacity)
	}

	requests := r.NewCounterVec(obs.Opts{Name: "respeed_http_requests_total",
		Help: "HTTP requests served, by endpoint route.", Labels: []string{"endpoint"}})
	errors := r.NewCounterVec(obs.Opts{Name: "respeed_http_errors_total",
		Help: "HTTP responses with status >= 400.", Labels: []string{"endpoint"}})
	timeouts := r.NewCounterVec(obs.Opts{Name: "respeed_http_timeouts_total",
		Help: "Requests that gave up waiting for a result (504).", Labels: []string{"endpoint"}})
	hits := r.NewCounterVec(obs.Opts{Name: "respeed_http_cache_hits_total",
		Help: "Requests answered from the LRU cache or a joined flight.", Labels: []string{"endpoint"}})
	misses := r.NewCounterVec(obs.Opts{Name: "respeed_http_cache_misses_total",
		Help: "Requests that required a fresh computation.", Labels: []string{"endpoint"}})
	latency := r.NewHistogramVec(obs.Opts{Name: "respeed_http_request_duration_seconds",
		Help: "Request latency by endpoint route.", Labels: []string{"endpoint"}}, obs.DurationBuckets())

	s.prom = make(map[string]*promEndpoint, len(servedEndpoints))
	for _, ep := range servedEndpoints {
		s.prom[ep] = &promEndpoint{
			requests: requests.With(ep),
			errors:   errors.With(ep),
			timeouts: timeouts.With(ep),
			hits:     hits.With(ep),
			misses:   misses.With(ep),
			latency:  latency.With(ep),
		}
	}

	r.NewGaugeFunc("respeed_cache_entries",
		"Entries currently held by the result cache.",
		func() float64 { return float64(s.cache.len()) })
	r.NewGaugeFunc("respeed_cache_capacity",
		"Configured result-cache capacity.",
		func() float64 { return float64(s.opts.CacheSize) })
	r.NewCounterFunc("respeed_cache_evictions_total",
		"Result-cache evictions since start.",
		func() float64 { return float64(s.cache.evictions()) })
	r.NewGaugeFunc("respeed_uptime_seconds",
		"Seconds since the server was created.",
		func() float64 { return time.Since(s.started).Seconds() })
	r.NewCounterFunc("respeed_traces_total",
		"Root request traces recorded (the /debug/traces ring retains the newest).",
		func() float64 { return float64(s.tracer.Total()) })
	// The clean-trajectory memo is process-wide, so these four series
	// count every scenario call in the process, whichever server (or
	// jobs shard, or fleet worker) made it.
	r.NewCounterFunc("respeed_engine_reference_memo_hits_total",
		"Scenario calls that found their clean reference trajectory in the process-wide memo.",
		func() float64 { return float64(engine.ReferenceMemoStats().Hits) })
	r.NewCounterFunc("respeed_engine_reference_memo_misses_total",
		"Scenario calls that built their clean reference trajectory: the process-wide memo did not hold it.",
		func() float64 { return float64(engine.ReferenceMemoStats().Misses) })
	r.NewCounterFunc("respeed_engine_reference_memo_evictions_total",
		"Trajectories the process-wide memo dropped when it emptied itself to make room.",
		func() float64 { return float64(engine.ReferenceMemoStats().Evictions) })
	r.NewGaugeFunc("respeed_engine_reference_memo_bytes",
		"Bytes the process-wide trajectory memo holds, keys included.",
		func() float64 { return float64(engine.ReferenceMemoStats().Bytes) })
	// Edge-QoS series: admission verdicts plus per-lane occupancy,
	// exported read-time off the lanes' atomic counters.
	s.admitAdmitted = r.NewCounter("respeed_admit_admitted_total",
		"Requests admitted past the admission policy.")
	s.admitShed = r.NewCounter("respeed_admit_shed_total",
		"Requests shed with 429: admission policy verdict or saturated lane.")
	s.admitDegraded = r.NewCounter("respeed_admit_degraded_total",
		"Requests answered with a degraded (partial, reduced-replica) estimate.")
	r.NewGaugeVec(obs.Opts{Name: "respeed_admit_policy_info",
		Help:   "Active admission policy; the value is always 1.",
		Labels: []string{"policy"},
	}).With(s.admission.Name()).Set(1)
	laneQueue := r.NewGaugeVec(obs.Opts{Name: "respeed_lane_queue_depth",
		Help: "Requests waiting for a lane slot.", Labels: []string{"lane"}})
	laneInflight := r.NewGaugeVec(obs.Opts{Name: "respeed_lane_inflight",
		Help: "Computations currently holding a lane slot.", Labels: []string{"lane"}})
	for _, l := range []*admit.Lane{s.express, s.heavy} {
		l := l
		laneQueue.WithFunc(func() float64 { return float64(l.Queued()) }, l.Name())
		laneInflight.WithFunc(func() float64 { return float64(l.InFlight()) }, l.Name())
	}

	bi := obs.ReadBuildInfo()
	r.NewGaugeVec(obs.Opts{Name: "respeed_build_info",
		Help:   "Build metadata; the value is always 1.",
		Labels: []string{"version", "revision", "goversion"},
	}).With(bi.Version, bi.VCSRevision, bi.GoVersion).Set(1)

	// Engine-level series: one Counters per scenario label, shared by
	// every simulation the server runs under that label, exported
	// read-time so scrapes never lock simulation state. The pattern and
	// built-in-scenario labels are eager; spec labels are minted on
	// first use by engineCounters.
	s.engCounters = make(map[string]*engine.Counters, len(scenarioNames)+1)
	engFamilies := []struct {
		name, help string
		read       func(engine.CountersSnapshot) float64
	}{
		{"respeed_engine_patterns_total", "Committed checkpoint patterns simulated.",
			func(c engine.CountersSnapshot) float64 { return float64(c.Patterns) }},
		{"respeed_engine_attempts_total", "Pattern execution attempts, including re-executions.",
			func(c engine.CountersSnapshot) float64 { return float64(c.Attempts) }},
		{"respeed_engine_silent_errors_total", "Silent data corruptions injected.",
			func(c engine.CountersSnapshot) float64 { return float64(c.SilentErrors) }},
		{"respeed_engine_failstop_errors_total", "Fail-stop errors injected.",
			func(c engine.CountersSnapshot) float64 { return float64(c.FailStopErrors) }},
		{"respeed_engine_verify_failures_total", "Verifications that caught a corruption.",
			func(c engine.CountersSnapshot) float64 { return float64(c.VerifyFailures) }},
		{"respeed_engine_recoveries_total", "Rollback recoveries of either error kind.",
			func(c engine.CountersSnapshot) float64 { return float64(c.Recoveries) }},
		{"respeed_engine_simulated_seconds_total", "Simulated wall-clock seconds.",
			func(c engine.CountersSnapshot) float64 { return c.SimulatedSeconds }},
		{"respeed_engine_simulated_joules_total", "Simulated energy (mW*s).",
			func(c engine.CountersSnapshot) float64 { return c.SimulatedJoules }},
	}
	s.engVecs = make([]engCounterVec, 0, len(engFamilies))
	for _, f := range engFamilies {
		vec := r.NewCounterVec(obs.Opts{Name: f.name, Help: f.help, Labels: []string{"scenario"}})
		s.engVecs = append(s.engVecs, engCounterVec{vec: vec, read: f.read})
	}
	s.engineCounters(enginePatternLabel)
	for _, name := range scenarioNames {
		s.engineCounters(name)
	}
}

// maxEngineLabels caps the scenario-label cardinality of the engine
// counter families: every distinct POSTed spec would otherwise mint
// eight series forever. Past the cap, new specs share "spec:other".
const maxEngineLabels = 64

// engCounterVec pairs one engine counter family's vec handle with its
// snapshot reader, so labels can be registered after initObs.
type engCounterVec struct {
	vec  *obs.CounterVec
	read func(engine.CountersSnapshot) float64
}

// engineCounters returns the engine.Counters behind a scenario label,
// minting the label's exposition series on first use. Safe for
// concurrent use; scrapes read the returned counters lock-free.
func (s *Server) engineCounters(label string) *engine.Counters {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	if c, ok := s.engCounters[label]; ok {
		return c
	}
	if len(s.engCounters) >= maxEngineLabels {
		label = "spec:other"
		if c, ok := s.engCounters[label]; ok {
			return c
		}
	}
	c := &engine.Counters{}
	s.engCounters[label] = c
	for _, v := range s.engVecs {
		read := v.read
		v.vec.WithFunc(func() float64 { return read(c.Snapshot()) }, label)
	}
	return c
}

// observe meters one finished request into its endpoint's instruments.
func (s *Server) observe(endpoint string, elapsed time.Duration, cacheHit bool, status int) {
	pe, ok := s.prom[endpoint]
	if !ok {
		return
	}
	pe.requests.Inc()
	if status >= 400 {
		pe.errors.Inc()
	}
	if status == http.StatusGatewayTimeout {
		pe.timeouts.Inc()
	}
	if cacheHit {
		pe.hits.Inc()
	} else {
		pe.misses.Inc()
	}
	pe.latency.Observe(elapsed.Seconds())
}

// statusRecorder captures the response status for the request log.
// Unwrap keeps http.NewResponseController working through the wrapper,
// which the SSE handlers rely on for flushing.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// middleware is the request observability wrapper: it accepts or
// assigns an X-Request-ID (echoed on the response), opens a root span
// feeding the /debug/traces ring, and emits one structured log line
// per finished request.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)

		ctx := obs.WithRequestID(r.Context(), reqID)
		ctx = obs.WithTracer(ctx, s.tracer)
		ctx, span := obs.StartSpan(ctx, r.Method+" "+r.URL.Path)
		span.Annotate("request_id", reqID)

		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r.WithContext(ctx))

		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		span.Annotate("status", strconv.Itoa(status))
		span.End()
		s.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Duration("duration", time.Since(start)))
	})
}

// TracesReply is the /debug/traces answer: the newest retained root
// request spans, newest first.
type TracesReply struct {
	Total  uint64             `json:"total"`
	Traces []obs.SpanSnapshot `json:"traces"`
}

// maxTraceLimit caps the ?limit= parameter of /debug/traces.
const maxTraceLimit = 1024

func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const endpoint = "/debug/traces"
	if !s.requireGet(w, r, endpoint, start) {
		return
	}
	q := r.URL.Query()
	limit := -1
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > maxTraceLimit {
			s.direct(w, endpoint, start, mustErrorResponse(http.StatusBadRequest,
				fmt.Sprintf("limit must be an integer in [1, %d] (got %q)", maxTraceLimit, raw)))
			return
		}
		limit = v
	}
	wantID, wantName := q.Get("id"), q.Get("name")
	roots := s.tracer.Roots()
	// Filter before limiting, so ?id=j000001&limit=5 means "the newest
	// five traces of THAT campaign", which is what an operator pulling
	// one job's trace out of a busy ring wants.
	if wantID != "" || wantName != "" {
		kept := roots[:0]
		for _, root := range roots {
			if wantID != "" && root.ID != wantID {
				continue
			}
			if wantName != "" && root.Name != wantName {
				continue
			}
			kept = append(kept, root)
		}
		roots = kept
	}
	if limit > 0 && len(roots) > limit {
		roots = roots[len(roots)-limit:] // newest last, as the ring stores them
	}
	if roots == nil {
		roots = []obs.SpanSnapshot{}
	}
	resp, err := jsonResponse(http.StatusOK, TracesReply{Total: s.tracer.Total(), Traces: roots})
	if err != nil {
		resp = mustErrorResponse(http.StatusInternalServerError, err.Error())
	}
	s.direct(w, endpoint, start, resp)
}

// Bounds of /v1/simulate/events: live streams exist to watch a handful
// of executions, not to bulk-export traces, so the run counts are small
// and the total frame count is capped.
const (
	maxStreamPatterns     = 500    // plain pattern replications per stream
	maxStreamScenarioRuns = 10     // full scenario runs per stream
	maxStreamEvents       = 10_000 // data frames per stream
)

// streamEvent is one /v1/simulate/events SSE frame: a trace event
// tagged with the replication index it belongs to.
type streamEvent struct {
	Run int `json:"run"`
	trace.Event
}

// handleSimulateEvents streams the engine's event log live over SSE:
// one `data: <streamEvent JSON>` frame per trace event, `: keepalive`
// comments while computation is quiet, and a terminal `event: done`
// (or `event: error`) frame. The stream is neither cached nor
// deduplicated — every request drives its own simulation.
func (s *Server) handleSimulateEvents(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const endpoint = "/v1/simulate/events"
	q := r.URL.Query()
	if perr := checkQueryParams(q, "config", "rho", "speeds", "n", "seed", "scenario"); perr != nil {
		s.direct(w, endpoint, start, mustErrorResponse(perr.status, perr.msg))
		return
	}
	sq, perr := parseSolveQuery(q)
	if perr != nil {
		s.direct(w, endpoint, start, mustErrorResponse(perr.status, perr.msg))
		return
	}
	scenarioName := q.Get("scenario")
	nDef, nMax := 10, maxStreamPatterns
	if scenarioName != "" {
		nDef, nMax = 1, maxStreamScenarioRuns
	}
	n, seed, perr := parseRunQuery(q, nDef, 1, nMax)
	if perr != nil {
		s.direct(w, endpoint, start, mustErrorResponse(perr.status, perr.msg))
		return
	}

	p := core.FromConfig(sq.cfg)
	model := energy.Model{Kappa: sq.cfg.Processor.Kappa, Pidle: sq.cfg.Processor.Pidle, Pio: sq.cfg.Pio}
	var sc engine.Scenario
	if scenarioName != "" {
		var perr *paramError
		if sc, perr = scenarioByName(scenarioName, sq.cfg); perr != nil {
			s.direct(w, endpoint, start, mustErrorResponse(perr.status, perr.msg))
			return
		}
	}

	ctx := r.Context()
	events := make(chan streamEvent, 64)
	var runErr error // written before close(events); read after it closes
	go func() {
		defer close(events)
		emitted := 0
		emit := func(run int, e trace.Event) {
			if emitted >= maxStreamEvents {
				return
			}
			select {
			case events <- streamEvent{Run: run, Event: e}:
				emitted++
			case <-ctx.Done():
			case <-s.shutdown:
			}
		}
		if scenarioName != "" {
			counters := s.engineCounters(scenarioName)
			for run := 0; run < n; run++ {
				run := run
				sc.Obs = engine.Options{Counters: counters,
					TraceSink: func(e trace.Event) { emit(run, e) }}
				if _, err := sc.Run(seed + uint64(run)); err != nil {
					runErr = err
					return
				}
				if ctx.Err() != nil {
					return
				}
			}
			return
		}
		g, err := core.GridFor(p, sq.speeds)
		if err != nil {
			runErr = err
			return
		}
		sol, err := g.Solve(sq.rho)
		if err != nil {
			runErr = err // includes core.ErrInfeasible
			return
		}
		// One engine streams all n patterns; the sink reads the loop
		// variable to tag frames (same goroutine, no race).
		run := 0
		eng, err := engine.NewPatternEngine(engine.PatternConfig{
			Plan:  engine.Plan{W: sol.Best.W, Sigma1: sol.Best.Sigma1, Sigma2: sol.Best.Sigma2},
			Costs: engine.Costs{C: p.C, V: p.V, R: p.R, LambdaS: p.Lambda},
			Faults: engine.NewAggregateFaults(p.Lambda, 0,
				rngx.NewStream(seed, "serve-events")),
			Recorder: engine.NewSumRecorder(model),
			Obs: engine.Options{
				Counters:  s.engineCounters(enginePatternLabel),
				TraceSink: func(e trace.Event) { emit(run, e) },
			},
		})
		if err != nil {
			runErr = err
			return
		}
		for ; run < n && ctx.Err() == nil; run++ {
			eng.RunPattern()
		}
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	keepalive := time.NewTicker(s.opts.SSEKeepalive)
	defer keepalive.Stop()

	status := http.StatusOK
stream:
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				if runErr != nil {
					fmt.Fprintf(w, "event: error\ndata: %s\n\n", jsonString(runErr.Error()))
					status = http.StatusInternalServerError
				} else {
					fmt.Fprint(w, "event: done\ndata: {}\n\n")
				}
				rc.Flush()
				break stream
			}
			data, err := json.Marshal(ev)
			if err != nil {
				status = http.StatusInternalServerError
				break stream
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				status = http.StatusInternalServerError
				break stream
			}
			if rc.Flush() != nil {
				status = http.StatusInternalServerError
				break stream
			}
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				break stream
			}
			if rc.Flush() != nil {
				break stream
			}
		case <-ctx.Done():
			break stream
		case <-s.shutdown:
			break stream
		}
	}
	s.observe(endpoint, time.Since(start), false, status)
}

// jsonString renders s as a JSON string literal (for hand-assembled
// SSE frames).
func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		return []byte(`"encoding error"`)
	}
	return b
}
