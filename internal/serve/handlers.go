package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"respeed/internal/admit"
	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/jobs"
	"respeed/internal/obs"
	"respeed/internal/platform"
	"respeed/internal/spec"
)

// maxSpeedOverride bounds the ?speeds= list: the solver is O(K²) in the
// speed count, so an unbounded list would let one request monopolize a
// worker.
const maxSpeedOverride = 64

// paramError is a client-side request problem (bad or missing
// parameter, unknown config). It is answered directly, without touching
// the cache.
type paramError struct {
	status int
	msg    string
}

func (e *paramError) Error() string { return e.msg }

func badParam(format string, args ...any) *paramError {
	return &paramError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// fmtF renders a float canonically for cache keys (shortest round-trip
// form, so 3, 3.0 and 3e0 share one entry).
func fmtF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// fmtSpeeds renders a resolved speed set canonically.
func fmtSpeeds(speeds []float64) string {
	parts := make([]string, len(speeds))
	for i, s := range speeds {
		parts[i] = fmtF(s)
	}
	return strings.Join(parts, ",")
}

// solveQuery is the canonicalized common parameter set of the solver
// endpoints: a catalog config, a positive bound ρ, and the resolved
// speed set (catalog speeds unless overridden by ?speeds=).
type solveQuery struct {
	cfg    platform.Config
	rho    float64
	speeds []float64
}

// parseSolveQuery extracts and validates config/rho/speeds.
func parseSolveQuery(q url.Values) (solveQuery, *paramError) {
	name := q.Get("config")
	if name == "" {
		return solveQuery{}, badParam("missing config parameter (use /v1/configs to list)")
	}
	cfg, ok := platform.ByName(name)
	if !ok {
		return solveQuery{}, &paramError{status: http.StatusNotFound,
			msg: fmt.Sprintf("unknown configuration %q (use /v1/configs to list)", name)}
	}
	rhoStr := q.Get("rho")
	if rhoStr == "" {
		return solveQuery{}, badParam("missing rho parameter")
	}
	rho, err := strconv.ParseFloat(rhoStr, 64)
	if err != nil || math.IsNaN(rho) || math.IsInf(rho, 0) || rho <= 0 {
		return solveQuery{}, badParam("rho must be a positive finite number (got %q)", rhoStr)
	}
	speeds := cfg.Processor.Speeds
	if raw := q.Get("speeds"); raw != "" {
		parts := strings.Split(raw, ",")
		if len(parts) > maxSpeedOverride {
			return solveQuery{}, badParam("speeds override limited to %d entries (got %d)",
				maxSpeedOverride, len(parts))
		}
		speeds = make([]float64, len(parts))
		for i, p := range parts {
			s, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
				return solveQuery{}, badParam("speeds[%d] must be a positive finite number (got %q)", i, p)
			}
			speeds[i] = s
		}
	}
	return solveQuery{cfg: cfg, rho: rho, speeds: speeds}, nil
}

// key builds the canonical cache key for an endpoint over this query.
func (sq solveQuery) key(endpoint string, extra ...string) string {
	parts := append([]string{endpoint, sq.cfg.Name(), fmtF(sq.rho), fmtSpeeds(sq.speeds)}, extra...)
	return strings.Join(parts, "|")
}

// checkQueryParams rejects unknown query parameters, naming the
// offender: a typoed ?sseed= must fail loudly instead of silently
// running with the default.
func checkQueryParams(q url.Values, allowed ...string) *paramError {
	for name := range q {
		known := false
		for _, a := range allowed {
			if name == a {
				known = true
				break
			}
		}
		if !known {
			return badParam("unknown query parameter %q (valid: %s)",
				name, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// parseRunQuery reads the n and seed parameters of the simulate
// endpoints: n defaults to def and must be an integer in [lo, hi], seed
// defaults to 1.
func parseRunQuery(q url.Values, def, lo, hi int) (n int, seed uint64, perr *paramError) {
	n, seed = def, 1
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < lo || v > hi {
			return 0, 0, badParam("n must be an integer in [%d, %d] (got %q)", lo, hi, raw)
		}
		n = v
	}
	if raw := q.Get("seed"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			return 0, 0, badParam("seed must be a uint64 (got %q)", raw)
		}
		seed = v
	}
	return n, seed, nil
}

// jsonResponse marshals v into a memoizable response.
func jsonResponse(status int, v any) (response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return response{}, fmt.Errorf("serve: encode response: %w", err)
	}
	return response{status: status, body: append(body, '\n')}, nil
}

// errorBody is the JSON shape of every non-2xx answer.
type errorBody struct {
	Error string `json:"error"`
}

// mustErrorResponse builds an error response (the marshal cannot fail).
func mustErrorResponse(status int, msg string) response {
	resp, err := jsonResponse(status, errorBody{Error: msg})
	if err != nil {
		panic(err) // unreachable: errorBody always marshals
	}
	return resp
}

// reply writes a memoized response verbatim.
func reply(w http.ResponseWriter, resp response) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// direct answers a request that bypasses the cache (health, metrics,
// parameter errors) and still meters it.
func (s *Server) direct(w http.ResponseWriter, endpoint string, start time.Time, resp response) {
	reply(w, resp)
	s.observe(endpoint, time.Since(start), false, resp.status)
}

// requireGet answers 405 for non-GET/HEAD methods.
func (s *Server) requireGet(w http.ResponseWriter, r *http.Request, endpoint string, start time.Time) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	s.direct(w, endpoint, start, mustErrorResponse(http.StatusMethodNotAllowed, "use GET"))
	return false
}

// tenantHeader identifies the calling tenant for fair-share admission.
// Requests without it share one default bucket.
const tenantHeader = "X-Tenant-ID"

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, minimum 1 (a zero would invite an immediate retry storm).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// tooManyRequests answers an immediate 429 with a Retry-After hint —
// the fast-fail that replaces burning the whole request deadline
// toward a certain 504.
func (s *Server) tooManyRequests(w http.ResponseWriter, endpoint string, start time.Time,
	reason string, retryAfter time.Duration) {
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	s.direct(w, endpoint, start, mustErrorResponse(http.StatusTooManyRequests, reason))
}

// serveCached answers one express (closed-form) cacheable endpoint.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, key string,
	compute func(ctx context.Context) (response, error)) {
	s.serveGated(w, r, endpoint, key, false, compute, nil)
}

// serveGated answers one cacheable endpoint through the full QoS path:
// LRU lookup, admission policy, then singleflight-deduplicated
// computation under the endpoint class's priority lane, with the
// request's context bounding how long the caller waits. compute
// returns the full response (including domain errors such as
// infeasibility, which are deterministic and therefore cached); a
// non-nil error means an internal failure and is not cached.
//
// compute receives a context bounded by the server's request timeout —
// deliberately NOT the initiating request's context, because the
// singleflight result is shared with coalesced followers and cached for
// later requests. Once the timeout passes no waiter can still be
// served, so cancellation-aware computations (the Monte-Carlo fan-outs)
// stop burning chunks instead of completing into a cache nobody asked
// to keep warm past the deadline.
//
// degrade, when non-nil, is the saturation fallback under
// OverloadDegrade: a cheaper reduced-accuracy variant of compute, run
// inline (without a lane slot) when the lane's queue is at its bound.
// Its answer is volatile — served to every coalesced waiter but never
// cached.
func (s *Server) serveGated(w http.ResponseWriter, r *http.Request, endpoint, key string,
	heavy bool, compute, degrade func(ctx context.Context) (response, error)) {
	s.serveGatedMethod(w, r, endpoint, "", key, heavy, compute, degrade)
}

// serveGatedMethod is serveGated with an explicit method requirement:
// "" accepts GET/HEAD (the read-only default), anything else must match
// exactly (POST /v1/simulate). Everything past the method check is the
// same QoS path — the cache and singleflight key the canonicalized
// request, not the verb.
func (s *Server) serveGatedMethod(w http.ResponseWriter, r *http.Request, endpoint, method, key string,
	heavy bool, compute, degrade func(ctx context.Context) (response, error)) {
	start := time.Now()
	if method == "" {
		if !s.requireGet(w, r, endpoint, start) {
			return
		}
	} else if r.Method != method {
		w.Header().Set("Allow", method)
		s.direct(w, endpoint, start, mustErrorResponse(http.StatusMethodNotAllowed, "use "+method))
		return
	}
	if resp, ok := s.cache.get(key); ok {
		reply(w, resp)
		s.observe(endpoint, time.Since(start), true, resp.status)
		return
	}
	// Admission: the policy sheds excess arrivals at the door, before
	// any compute is spent. Cache hits above bypass it — they are free,
	// and a draining (reject-all) server keeps answering what it
	// already knows.
	dec, release := s.admission.Admit(r.Context(), admit.Request{
		Tenant:   r.Header.Get(tenantHeader),
		Endpoint: endpoint,
		Heavy:    heavy,
	})
	if !dec.Admitted {
		s.admitShed.Inc()
		s.tooManyRequests(w, endpoint, start, dec.Reason, dec.RetryAfter)
		return
	}
	s.admitAdmitted.Inc()
	defer release()

	lane := s.express
	if heavy {
		lane = s.heavy
	}
	fn := func() (response, error) {
		// The computation window opens when the flight starts: it
		// bounds the wait for a lane slot and the computation itself.
		cctx, ccancel := context.WithTimeout(context.Background(), s.opts.RequestTimeout)
		defer ccancel()
		releaseSlot, err := lane.Acquire(cctx)
		if err != nil {
			if errors.Is(err, admit.ErrSaturated) && degrade != nil &&
				s.opts.OverloadMode == OverloadDegrade {
				// Graceful degradation: the heavy lane cannot take more
				// work, so serve a cheaper reduced-replica estimate
				// inline instead of shedding. The result is volatile —
				// not the canonical answer for this key.
				resp, derr := degrade(cctx)
				if derr == nil {
					resp.volatile = true
				}
				return resp, derr
			}
			return response{}, err
		}
		defer releaseSlot()
		if s.preCompute != nil {
			s.preCompute(endpoint)
		}
		// Child span under the initiating request's root (that context
		// is only read for its tracer linkage, never for cancellation:
		// the computation outlives an expired waiter by design).
		_, span := obs.StartSpan(r.Context(), "compute")
		span.Annotate("endpoint", endpoint)
		span.Annotate("key", key)
		defer span.End()
		resp, err := compute(cctx)
		if err == nil {
			// Memoize before the flight is torn down, so a request
			// arriving between flight removal and cache fill is
			// impossible.
			s.cache.put(key, resp)
		}
		return resp, err
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	// Two attempts: a follower that joined a flight whose LEADER hit
	// its own computation deadline must not inherit the leader's
	// context error — the follower's deadline may be fine, so it
	// retries and either owns the key or joins a newer flight.
	const maxAttempts = 2
	for attempt := 0; ; attempt++ {
		call, joined := s.flights.work(key, fn)
		select {
		case <-call.done:
			if call.err == nil {
				reply(w, call.val)
				if call.val.volatile {
					s.admitDegraded.Inc()
				}
				// A joined waiter got its answer without computing:
				// count it as a cache hit for hit-rate purposes.
				s.observe(endpoint, time.Since(start), joined, call.val.status)
				return
			}
			if errors.Is(call.err, admit.ErrSaturated) {
				// Fast-fail: the lane's queue is at its bound, so no
				// useful deadline can be met — answer now.
				s.admitShed.Inc()
				s.tooManyRequests(w, endpoint, start,
					fmt.Sprintf("%s lane saturated (server overloaded)", lane.Name()),
					s.opts.RequestTimeout)
				return
			}
			ctxErr := errors.Is(call.err, context.DeadlineExceeded) ||
				errors.Is(call.err, context.Canceled)
			if ctxErr && joined && attempt+1 < maxAttempts && ctx.Err() == nil {
				continue // the leader's deadline expired, not ours
			}
			status := http.StatusInternalServerError
			if ctxErr {
				// The computation hit the request deadline and aborted
				// (nothing was cached).
				status = http.StatusGatewayTimeout
			}
			s.direct(w, endpoint, start, mustErrorResponse(status, call.err.Error()))
			return
		case <-ctx.Done():
			s.direct(w, endpoint, start, mustErrorResponse(http.StatusGatewayTimeout,
				"timed out waiting for result (the computation continues and will be cached)"))
			return
		}
	}
}

// --- endpoint payloads ---

// SolveReply is the /v1/solve answer.
type SolveReply struct {
	Config   string        `json:"config"`
	Rho      float64       `json:"rho"`
	Speeds   []float64     `json:"speeds"`
	Single   bool          `json:"single,omitempty"`
	Solution core.Solution `json:"solution"`
}

// InfeasibleReply is the 422 answer of /v1/solve and /v1/gain: no speed
// pair satisfies the bound. Pairs carries the fully evaluated
// (all-infeasible) grid so clients can see how far off the bound is.
type InfeasibleReply struct {
	Error string            `json:"error"`
	Pairs []core.PairResult `json:"pairs,omitempty"`
}

// Sigma1Row mirrors core.PairResult with a JSON-safe Sigma2: infeasible
// rows carry Sigma2 = NaN internally, which JSON cannot represent, so
// it becomes null.
type Sigma1Row struct {
	Sigma1         float64  `json:"Sigma1"`
	Sigma2         *float64 `json:"Sigma2"`
	RhoMin         float64  `json:"RhoMin"`
	Feasible       bool     `json:"Feasible"`
	W              float64  `json:"W"`
	TimeOverhead   float64  `json:"TimeOverhead"`
	EnergyOverhead float64  `json:"EnergyOverhead"`
}

// Sigma1TableReply is the /v1/sigma1-table answer.
type Sigma1TableReply struct {
	Config string      `json:"config"`
	Rho    float64     `json:"rho"`
	Speeds []float64   `json:"speeds"`
	Rows   []Sigma1Row `json:"rows"`
}

// GainReply is the /v1/gain answer.
type GainReply struct {
	Config string  `json:"config"`
	Rho    float64 `json:"rho"`
	Gain   float64 `json:"gain"`
}

// SimulateReply is the /v1/simulate answer.
type SimulateReply struct {
	Config string      `json:"config"`
	Rho    float64     `json:"rho"`
	N      int         `json:"n"`
	Seed   uint64      `json:"seed"`
	Plan   engine.Plan `json:"plan"`
	// Partial marks a degraded answer: the heavy lane was saturated
	// and the estimate was computed at the reduced replica count N
	// instead of the requested RequestedN, so the confidence interval
	// is wider. Degraded answers are never cached.
	Partial    bool            `json:"partial,omitempty"`
	RequestedN int             `json:"requested_n,omitempty"`
	Estimate   engine.Estimate `json:"estimate"`
}

// ScenarioReply is the /v1/simulate answer when ?scenario= selects one
// of the composed engine scenarios.
type ScenarioReply struct {
	Config   string        `json:"config"`
	Rho      float64       `json:"rho"`
	Scenario string        `json:"scenario"`
	N        int           `json:"n"`
	Seed     uint64        `json:"seed"`
	Report   engine.Report `json:"report"`
	// Partial and RequestedN mark a degraded answer, exactly as on
	// SimulateReply.
	Partial    bool            `json:"partial,omitempty"`
	RequestedN int             `json:"requested_n,omitempty"`
	Estimate   engine.Estimate `json:"estimate"`
}

// maxScenarioSimulations bounds ?n= for scenario runs: unlike the
// abstract pattern replication, every scenario run drives a real
// state-carrying workload, so replications are orders of magnitude more
// expensive.
const maxScenarioSimulations = 2000

// scenarioNames are the valid ?scenario= values of /v1/simulate — the
// spec registry's built-ins, in the order /v1/configs advertises them.
var scenarioNames = spec.Names()

// scenarioByName compiles the named built-in spec for a configuration:
// a thin lookup into the internal/spec registry, which re-expresses the
// hand-built scenario catalog as declarative documents (the golden
// tests in internal/spec prove the two constructions bit-identical).
func scenarioByName(name string, cfg platform.Config) (engine.Scenario, *paramError) {
	sp, ok := spec.ByName(name)
	if !ok {
		return engine.Scenario{}, badParam(
			"unknown scenario %q (valid: %s)", name, strings.Join(scenarioNames, ", "))
	}
	sc, err := sp.Compile(spec.EnvFor(cfg))
	if err != nil {
		// Built-ins compile for every catalog config; a failure here is
		// a server bug, not a client error.
		return engine.Scenario{}, &paramError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	return sc, nil
}

// ConfigEntry is one /v1/configs row.
type ConfigEntry struct {
	Name      string             `json:"name"`
	Platform  platform.Platform  `json:"platform"`
	Processor platform.Processor `json:"processor"`
	Pio       float64            `json:"pio"`
}

// ConfigsReply is the /v1/configs answer. Beyond the catalog it
// advertises the service's other enumerable vocabularies: the valid
// ?scenario= names of /v1/simulate (the spec registry's built-ins), the
// campaign kinds accepted by POST /v1/jobs, and the scenario-spec
// schema version accepted by POST /v1/simulate.
type ConfigsReply struct {
	Configs       []ConfigEntry `json:"configs"`
	Scenarios     []string      `json:"scenarios"`
	CampaignKinds []string      `json:"campaign_kinds"`
	SpecVersion   int           `json:"spec_version"`
	// Fleet advertises the daemon's static fleet facts (role, fleet
	// size, routing policy); omitted without a fleet role. Static only:
	// this reply is served from the result cache.
	Fleet *FleetInfo `json:"fleet,omitempty"`
}

// --- handlers ---

// HealthReply is the /healthz answer: liveness plus enough build and
// uptime context to identify the running binary at a glance.
type HealthReply struct {
	Status        string        `json:"status"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	Build         obs.BuildInfo `json:"build"`
	// Fleet advertises the daemon's fleet role, peer view and shard
	// occupancy; omitted when the daemon runs without a fleet role.
	// Coordinators heartbeat this block on their peers.
	Fleet *FleetHealth `json:"fleet,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.requireGet(w, r, "/healthz", start) {
		return
	}
	resp, err := jsonResponse(http.StatusOK, HealthReply{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Build:         obs.ReadBuildInfo(),
		Fleet:         s.fleetHealth(),
	})
	if err != nil {
		resp = mustErrorResponse(http.StatusInternalServerError, err.Error())
	}
	s.direct(w, "/healthz", start, resp)
}

// handleMetrics negotiates between the two exposition formats: the
// Prometheus text format by default, the legacy JSON snapshot when the
// client asks for it with ?format=json or Accept: application/json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.requireGet(w, r, "/metrics", start) {
		return
	}
	format := r.URL.Query().Get("format")
	wantJSON := format == "json" ||
		(format == "" && strings.Contains(r.Header.Get("Accept"), "application/json"))
	switch {
	case wantJSON:
		resp, err := jsonResponse(http.StatusOK, s.Metrics())
		if err != nil {
			resp = mustErrorResponse(http.StatusInternalServerError, err.Error())
		}
		reply(w, resp) // /metrics does not meter itself
	case format == "" || format == "prometheus" || format == "text":
		var buf bytes.Buffer
		if err := s.obsReg.WritePrometheus(&buf); err != nil {
			reply(w, mustErrorResponse(http.StatusInternalServerError, err.Error()))
			return
		}
		w.Header().Set("Content-Type", obs.ContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(buf.Bytes())
	default:
		reply(w, mustErrorResponse(http.StatusBadRequest,
			fmt.Sprintf("unknown format %q (valid: prometheus, json)", format)))
	}
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "/v1/configs", "configs", func(context.Context) (response, error) {
		out := ConfigsReply{
			Scenarios:     scenarioNames,
			CampaignKinds: jobs.Kinds(),
			SpecVersion:   spec.SchemaVersion,
			Fleet:         s.fleetInfo(),
		}
		for _, cfg := range platform.Configs() {
			out.Configs = append(out.Configs, ConfigEntry{
				Name:      cfg.Name(),
				Platform:  cfg.Platform,
				Processor: cfg.Processor,
				Pio:       cfg.Pio,
			})
		}
		return jsonResponse(http.StatusOK, out)
	})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	sq, perr := parseSolveQuery(q)
	if perr != nil {
		s.direct(w, "/v1/solve", start, mustErrorResponse(perr.status, perr.msg))
		return
	}
	single := q.Get("single") == "1" || q.Get("single") == "true"
	s.serveCached(w, r, "/v1/solve", sq.key("solve", strconv.FormatBool(single)),
		func(context.Context) (response, error) {
			g, err := core.GridFor(core.FromConfig(sq.cfg), sq.speeds)
			if err != nil {
				return response{}, err
			}
			var sol core.Solution
			if single {
				sol, err = g.SolveSingleSpeed(sq.rho)
			} else {
				sol, err = g.Solve(sq.rho)
			}
			switch {
			case errors.Is(err, core.ErrInfeasible):
				return jsonResponse(http.StatusUnprocessableEntity, InfeasibleReply{
					Error: fmt.Sprintf("no speed pair satisfies rho=%s", fmtF(sq.rho)),
					Pairs: sol.Pairs,
				})
			case err != nil:
				return response{}, err
			}
			return jsonResponse(http.StatusOK, SolveReply{
				Config: sq.cfg.Name(), Rho: sq.rho, Speeds: sq.speeds,
				Single: single, Solution: sol,
			})
		})
}

func (s *Server) handleSigma1Table(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sq, perr := parseSolveQuery(r.URL.Query())
	if perr != nil {
		s.direct(w, "/v1/sigma1-table", start, mustErrorResponse(perr.status, perr.msg))
		return
	}
	s.serveCached(w, r, "/v1/sigma1-table", sq.key("sigma1-table"), func(context.Context) (response, error) {
		g, err := core.GridFor(core.FromConfig(sq.cfg), sq.speeds)
		if err != nil {
			return response{}, err
		}
		rows := g.Sigma1Table(sq.rho)
		out := Sigma1TableReply{
			Config: sq.cfg.Name(), Rho: sq.rho, Speeds: sq.speeds,
			Rows: make([]Sigma1Row, len(rows)),
		}
		for i, row := range rows {
			jr := Sigma1Row{
				Sigma1: row.Sigma1, RhoMin: row.RhoMin, Feasible: row.Feasible,
				W: row.W, TimeOverhead: row.TimeOverhead, EnergyOverhead: row.EnergyOverhead,
			}
			if !math.IsNaN(row.Sigma2) {
				s2 := row.Sigma2
				jr.Sigma2 = &s2
			}
			out.Rows[i] = jr
		}
		return jsonResponse(http.StatusOK, out)
	})
}

func (s *Server) handleGain(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sq, perr := parseSolveQuery(r.URL.Query())
	if perr != nil {
		s.direct(w, "/v1/gain", start, mustErrorResponse(perr.status, perr.msg))
		return
	}
	s.serveCached(w, r, "/v1/gain", sq.key("gain"), func(context.Context) (response, error) {
		g, gerr := core.GridFor(core.FromConfig(sq.cfg), sq.speeds)
		if gerr != nil {
			return response{}, gerr
		}
		gain, err := g.TwoSpeedGain(sq.rho)
		switch {
		case errors.Is(err, core.ErrInfeasible):
			return jsonResponse(http.StatusUnprocessableEntity, InfeasibleReply{
				Error: fmt.Sprintf("no speed pair satisfies rho=%s", fmtF(sq.rho)),
			})
		case err != nil:
			return response{}, err
		}
		return jsonResponse(http.StatusOK, GainReply{Config: sq.cfg.Name(), Rho: sq.rho, Gain: gain})
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleSimulateSpec(w, r)
		return
	}
	start := time.Now()
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD, POST")
		s.direct(w, "/v1/simulate", start, mustErrorResponse(http.StatusMethodNotAllowed, "use GET or POST"))
		return
	}
	q := r.URL.Query()
	if perr := checkQueryParams(q, "config", "rho", "speeds", "n", "seed", "scenario"); perr != nil {
		s.direct(w, "/v1/simulate", start, mustErrorResponse(perr.status, perr.msg))
		return
	}
	sq, perr := parseSolveQuery(q)
	if perr != nil {
		s.direct(w, "/v1/simulate", start, mustErrorResponse(perr.status, perr.msg))
		return
	}
	scenarioName := q.Get("scenario")
	nDef, nMax := 10_000, s.opts.MaxSimulations
	if scenarioName != "" {
		nDef = 100
		if nMax > maxScenarioSimulations {
			nMax = maxScenarioSimulations
		}
	}
	n, seed, perr := parseRunQuery(q, nDef, 2, nMax)
	if perr != nil {
		s.direct(w, "/v1/simulate", start, mustErrorResponse(perr.status, perr.msg))
		return
	}
	if scenarioName != "" {
		sc, perr := scenarioByName(scenarioName, sq.cfg)
		if perr != nil {
			s.direct(w, "/v1/simulate", start, mustErrorResponse(perr.status, perr.msg))
			return
		}
		// Fresh computations feed the engine-level telemetry under this
		// scenario's label; cache hits replay bytes without simulating,
		// so they correctly leave the counters untouched.
		sc.Obs.Counters = s.engineCounters(scenarioName)
		key := sq.key("simulate-scenario", scenarioName, strconv.Itoa(n), strconv.FormatUint(seed, 10))
		run := func(nRun int) func(ctx context.Context) (response, error) {
			return func(ctx context.Context) (response, error) {
				rep, err := sc.Run(seed)
				if err != nil {
					return response{}, err
				}
				// Worker count 0 (GOMAXPROCS): ReplicateScenario is
				// deterministic in (seed, n) regardless. The context aborts
				// the fan-out at the request deadline. sc.Run above already
				// validated the scenario, so replication skips re-validating.
				est, err := engine.ReplicateScenarioValidatedCtx(ctx, sc, seed, nRun, 0)
				if err != nil {
					return response{}, err
				}
				out := ScenarioReply{
					Config: sq.cfg.Name(), Rho: sq.rho, Scenario: scenarioName,
					N: nRun, Seed: seed, Report: rep, Estimate: est,
				}
				if nRun != n {
					out.Partial, out.RequestedN = true, n
				}
				return jsonResponse(http.StatusOK, out)
			}
		}
		s.serveGated(w, r, "/v1/simulate", key, true, run(n), run(degradedN(n)))
		return
	}

	key := sq.key("simulate", strconv.Itoa(n), strconv.FormatUint(seed, 10))
	run := func(nRun int) func(ctx context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			p := core.FromConfig(sq.cfg)
			g, err := core.GridFor(p, sq.speeds)
			if err != nil {
				return response{}, err
			}
			sol, err := g.Solve(sq.rho)
			switch {
			case errors.Is(err, core.ErrInfeasible):
				return jsonResponse(http.StatusUnprocessableEntity, InfeasibleReply{
					Error: fmt.Sprintf("no speed pair satisfies rho=%s", fmtF(sq.rho)),
					Pairs: sol.Pairs,
				})
			case err != nil:
				return response{}, err
			}
			plan := engine.Plan{W: sol.Best.W, Sigma1: sol.Best.Sigma1, Sigma2: sol.Best.Sigma2}
			costs := engine.Costs{C: p.C, V: p.V, R: p.R, LambdaS: p.Lambda}
			model := energy.Model{Kappa: sq.cfg.Processor.Kappa, Pidle: sq.cfg.Processor.Pidle, Pio: sq.cfg.Pio}
			// Worker count 0 (GOMAXPROCS): the fan-out is
			// deterministic in (seed, n) regardless, so the pool size never
			// leaks into the cached bytes. The context aborts the fan-out
			// at the request deadline.
			est, err := engine.ReplicatePatternParallelCtx(ctx, plan, costs, model, seed, nRun, 0)
			if err != nil {
				return response{}, err
			}
			s.engineCounters(enginePatternLabel).NoteEstimate(est)
			out := SimulateReply{
				Config: sq.cfg.Name(), Rho: sq.rho, N: nRun, Seed: seed,
				Plan: plan, Estimate: est,
			}
			if nRun != n {
				out.Partial, out.RequestedN = true, n
			}
			return jsonResponse(http.StatusOK, out)
		}
	}
	s.serveGated(w, r, "/v1/simulate", key, true, run(n), run(degradedN(n)))
}

// maxSpecBody bounds the POST /v1/simulate request body: a scenario
// spec is a small document, so anything past a mebibyte is abuse.
const maxSpecBody = 1 << 20

// SpecReply is the POST /v1/simulate answer: one traced run plus a
// replication estimate of the posted scenario spec.
type SpecReply struct {
	Config string `json:"config"`
	// Spec is the document's optional name; SpecHash is the FNV-64a
	// digest of its canonical form — the identity the result cache keys
	// on, so two spellings of one spec share an entry.
	Spec     string        `json:"spec,omitempty"`
	SpecHash string        `json:"spec_hash"`
	N        int           `json:"n"`
	Seed     uint64        `json:"seed"`
	Report   engine.Report `json:"report"`
	// Partial and RequestedN mark a degraded answer, exactly as on
	// SimulateReply.
	Partial    bool            `json:"partial,omitempty"`
	RequestedN int             `json:"requested_n,omitempty"`
	Estimate   engine.Estimate `json:"estimate"`
}

// handleSimulateSpec answers POST /v1/simulate: the body is a
// declarative scenario spec, parsed strictly (unknown fields answer 400
// naming the offender), compiled against the ?config= platform and run
// exactly like a named scenario. CSV trace references are rejected —
// the HTTP surface takes inlined arrival times only.
func (s *Server) handleSimulateSpec(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const endpoint = "/v1/simulate"
	q := r.URL.Query()
	if perr := checkQueryParams(q, "config", "n", "seed"); perr != nil {
		s.direct(w, endpoint, start, mustErrorResponse(perr.status, perr.msg))
		return
	}
	name := q.Get("config")
	if name == "" {
		s.direct(w, endpoint, start, mustErrorResponse(http.StatusBadRequest,
			"missing config parameter (use /v1/configs to list)"))
		return
	}
	cfg, ok := platform.ByName(name)
	if !ok {
		s.direct(w, endpoint, start, mustErrorResponse(http.StatusNotFound,
			fmt.Sprintf("unknown configuration %q (use /v1/configs to list)", name)))
		return
	}
	nMax := s.opts.MaxSimulations
	if nMax > maxScenarioSimulations {
		nMax = maxScenarioSimulations
	}
	n, seed, perr := parseRunQuery(q, 100, 2, nMax)
	if perr != nil {
		s.direct(w, endpoint, start, mustErrorResponse(perr.status, perr.msg))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBody))
	if err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		s.direct(w, endpoint, start, mustErrorResponse(status, err.Error()))
		return
	}
	sp, err := spec.Parse(body)
	if err != nil {
		s.direct(w, endpoint, start, mustErrorResponse(http.StatusBadRequest, err.Error()))
		return
	}
	// Compile up front so every spec-level problem (and any
	// config-dependent one) answers 400 before the QoS path is engaged.
	sc, err := sp.Compile(spec.EnvFor(cfg))
	if err != nil {
		s.direct(w, endpoint, start, mustErrorResponse(http.StatusBadRequest, err.Error()))
		return
	}
	hash, err := spec.Hash(sp)
	if err != nil {
		s.direct(w, endpoint, start, mustErrorResponse(http.StatusInternalServerError, err.Error()))
		return
	}
	label := sp.Name
	if label == "" {
		label = hash
	}
	sc.Obs.Counters = s.engineCounters("spec:" + label)
	key := strings.Join([]string{"simulate-spec", cfg.Name(), hash,
		strconv.Itoa(n), strconv.FormatUint(seed, 10)}, "|")
	run := func(nRun int) func(ctx context.Context) (response, error) {
		return func(ctx context.Context) (response, error) {
			rep, err := sc.Run(seed)
			if err != nil {
				return response{}, err
			}
			// sc.Run above already validated the compiled scenario.
			est, err := engine.ReplicateScenarioValidatedCtx(ctx, sc, seed, nRun, 0)
			if err != nil {
				return response{}, err
			}
			out := SpecReply{
				Config: cfg.Name(), Spec: sp.Name, SpecHash: hash,
				N: nRun, Seed: seed, Report: rep, Estimate: est,
			}
			if nRun != n {
				out.Partial, out.RequestedN = true, n
			}
			return jsonResponse(http.StatusOK, out)
		}
	}
	s.serveGatedMethod(w, r, endpoint, http.MethodPost, key, true, run(n), run(degradedN(n)))
}

// degradedN is the replica count of a degraded answer: a tenth of the
// request (an order of magnitude cheaper), floored at the smallest n
// with a defined confidence interval.
func degradedN(n int) int {
	if n/10 < 2 {
		return 2
	}
	return n / 10
}
