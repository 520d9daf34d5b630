// Package serve is respeed's long-running planning service: an
// HTTP/JSON API over the BiCrit solver surface and the platform
// catalog, built for sustained traffic rather than one-shot CLI runs.
//
// Every answerable query (a solve, a σ1 table, a gain, a Monte-Carlo
// simulation) is a pure function of its canonicalized parameters —
// (config, ρ, speeds) and, for simulations, (n, seed) — so the service
// layers three mechanisms over the solver:
//
//   - an LRU result cache keyed by the canonical query, replaying the
//     exact response bytes of the first computation;
//   - singleflight deduplication, so a thundering herd of identical
//     queries computes once;
//   - an admission layer (internal/admit) ahead of compute: a pluggable
//     policy (token bucket, per-tenant fair share, reject-all for
//     drain) sheds excess arrivals with an immediate 429 + Retry-After,
//     and two priority lanes bound work in flight — an express lane for
//     closed-form solves and a heavy lane for Monte-Carlo simulation —
//     each with a bounded wait queue. A request past the heavy lane's
//     queue bound fails fast or, under OverloadDegrade, is answered
//     with a reduced-replica "partial" estimate instead of a 503.
//     Per-request context timeouts still apply (a waiter that gives up
//     answers 504 while the computation completes and warms the cache).
//
// /metrics reports per-endpoint request counts, error counts, cache hit
// rates and latency quantiles from one internal/obs registry, as
// Prometheus text or JSON. Run drains in-flight requests on context
// cancellation (SIGINT/SIGTERM in cmd/respeedd).
package serve

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"respeed/internal/admit"
	"respeed/internal/engine"
	"respeed/internal/fleet"
	"respeed/internal/jobs"
	"respeed/internal/obs"
)

// Overload modes: what a saturated heavy lane answers once its wait
// queue is at the bound.
const (
	// OverloadReject answers 429 with a Retry-After hint.
	OverloadReject = "reject"
	// OverloadDegrade re-runs the simulation at a reduced replica count
	// and answers 200 with "partial": true and a widened confidence
	// interval. Degraded answers are never cached.
	OverloadDegrade = "degrade"
)

// Options configures a Server. The zero value selects sensible
// defaults; see the field comments.
type Options struct {
	// CacheSize is the LRU capacity in entries (default 4096).
	CacheSize int
	// MaxInFlight bounds concurrently executing heavy (Monte-Carlo)
	// computations (default GOMAXPROCS). Excess work queues on the
	// heavy lane up to QueueBound, then fails fast. It is also the
	// default for ExpressInFlight.
	MaxInFlight int
	// RequestTimeout bounds one request's wait for its result (default
	// 10 s). Expired waiters answer 504; the computation still finishes
	// and populates the cache.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown drain (default 15 s).
	DrainTimeout time.Duration
	// MaxSimulations caps the n parameter of /v1/simulate
	// (default 1e6).
	MaxSimulations int
	// Jobs, when non-nil, enables the /v1/jobs campaign endpoints over
	// this manager. The caller owns the manager's lifecycle: open it
	// before New, close it after Run returns. When nil the jobs routes
	// answer 503.
	Jobs *jobs.Manager
	// Logger receives structured request logs (one line per finished
	// request, carrying the request ID). Nil discards them.
	Logger *slog.Logger
	// Registry backs the Prometheus text exposition of /metrics. When
	// nil the server creates a private registry. Pass the same registry
	// to jobs.Options.Registry so one scrape covers both subsystems; a
	// registry must back at most one Server.
	Registry *obs.Registry
	// TraceCapacity bounds the /debug/traces ring buffer (default 64
	// retained root spans).
	TraceCapacity int
	// Tracer, when non-nil, replaces the internally built trace ring.
	// Share one tracer between this field and jobs.Options.Tracer so
	// request spans and campaign job/dispatch spans land in the same
	// /debug/traces ring (TraceCapacity is ignored when set).
	Tracer *obs.Tracer
	// SSEKeepalive is the interval between `: keepalive` comment frames
	// on the SSE streams (default 15 s), so idle streams defeat proxy
	// and LB idle timeouts.
	SSEKeepalive time.Duration
	// Admission gates fresh computations before any compute is spent
	// (cache hits are always served, so a draining server keeps
	// answering what it already knows). Shed requests answer 429 with a
	// Retry-After hint. Nil admits everything.
	Admission admit.Policy
	// ExpressInFlight bounds concurrently executing closed-form
	// computations — the express lane serving /v1/solve,
	// /v1/sigma1-table, /v1/gain and /v1/configs (default MaxInFlight).
	// MaxInFlight bounds the heavy lane (/v1/simulate).
	ExpressInFlight int
	// QueueBound caps foreground waiters per lane: a request past the
	// bound fails fast (429, or a degraded answer under
	// OverloadDegrade) instead of waiting out RequestTimeout toward a
	// certain 504. 0 selects 4× the lane's slots; negative disables
	// queueing entirely.
	QueueBound int
	// HeavyLane, when non-nil, replaces the internally built heavy
	// lane. Share one lane between this field and jobs.Options.Gate so
	// interactive simulations and campaign shards respect a single
	// compute bound.
	HeavyLane *admit.Lane
	// OverloadMode selects the saturated-heavy-lane answer:
	// OverloadReject (the default) or OverloadDegrade.
	OverloadMode string
	// FleetWorker, when non-nil, enables POST /v1/shards: this daemon
	// executes remote campaign shards for fleet coordinators. When nil
	// the endpoint answers 503.
	FleetWorker *fleet.Worker
	// FleetCoordinator, when non-nil, marks this daemon a fleet
	// coordinator: /healthz, /v1/configs and /metrics advertise its
	// role, peer view and routing policy. The caller owns its
	// lifecycle (and wires its RunShard into jobs.Options.ShardRunner).
	FleetCoordinator *fleet.Coordinator
}

// withDefaults fills in the zero-valued fields.
func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 4096
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 15 * time.Second
	}
	if o.MaxSimulations <= 0 {
		o.MaxSimulations = 1_000_000
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.TraceCapacity <= 0 {
		o.TraceCapacity = 64
	}
	if o.SSEKeepalive <= 0 {
		o.SSEKeepalive = 15 * time.Second
	}
	if o.Admission == nil {
		o.Admission = admit.AlwaysAdmit{}
	}
	if o.ExpressInFlight <= 0 {
		o.ExpressInFlight = o.MaxInFlight
	}
	if o.OverloadMode == "" {
		o.OverloadMode = OverloadReject
	}
	return o
}

// laneQueueBound resolves the configured queue bound for a lane with
// the given slot count: 0 = 4×slots, negative = no queueing (the lane
// normalizes it to zero).
func laneQueueBound(configured, slots int) int {
	if configured == 0 {
		return 4 * slots
	}
	return configured
}

// Server is the planning service. Create it with New; it is safe for
// concurrent use by any number of clients.
type Server struct {
	opts    Options
	cache   *lru
	flights *flightGroup
	mux     *http.ServeMux
	started time.Time // uptime origin of /healthz and both /metrics formats

	// Edge QoS: the admission policy sheds excess arrivals before any
	// compute; the two lanes bound work in flight per traffic class, so
	// a microsecond solve never queues behind a multi-second
	// simulation. The counters back both /metrics expositions.
	admission     admit.Policy
	express       *admit.Lane
	heavy         *admit.Lane
	admitAdmitted *obs.Counter
	admitShed     *obs.Counter
	admitDegraded *obs.Counter

	// Observability spine: the Prometheus-style registry behind
	// /metrics, per-endpoint instruments, the bounded trace ring behind
	// /debug/traces, engine counters keyed by scenario label, and the
	// request logger. Scenario labels are minted dynamically (POST
	// /v1/simulate labels series by spec name or hash), so the counter
	// map and the family vec handles live behind engMu.
	obsReg      *obs.Registry
	prom        map[string]*promEndpoint
	tracer      *obs.Tracer
	engMu       sync.Mutex
	engCounters map[string]*engine.Counters
	engVecs     []engCounterVec
	log         *slog.Logger

	// shutdown closes when Run begins its graceful drain, so streaming
	// responses (job SSE) terminate instead of holding the drain open.
	shutdown     chan struct{}
	shutdownOnce sync.Once

	// preCompute, when non-nil, runs at the start of every fresh (non
	// cached) computation. Test hook: lets tests hold a request in
	// flight deterministically.
	preCompute func(endpoint string)
}

// New builds a Server over the platform catalog.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		cache:     newLRU(opts.CacheSize),
		flights:   newFlightGroup(),
		started:   time.Now(),
		admission: opts.Admission,
		shutdown:  make(chan struct{}),
	}
	s.express = admit.NewLane("express", opts.ExpressInFlight,
		laneQueueBound(opts.QueueBound, opts.ExpressInFlight))
	s.heavy = opts.HeavyLane
	if s.heavy == nil {
		s.heavy = admit.NewLane("heavy", opts.MaxInFlight,
			laneQueueBound(opts.QueueBound, opts.MaxInFlight))
	}
	s.initObs()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	s.mux.HandleFunc("/v1/configs", s.handleConfigs)
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/sigma1-table", s.handleSigma1Table)
	s.mux.HandleFunc("/v1/gain", s.handleGain)
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/simulate/events", s.handleSimulateEvents)
	// Campaign endpoints (method+wildcard patterns; the mux answers 405
	// with an Allow header for unmatched methods on a matched path).
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	// Fleet data plane: peer coordinators ship shards here.
	s.mux.HandleFunc("POST /v1/shards", s.handleShardExec)
	// Fleet observability: the coordinator's merged peer expositions.
	s.mux.HandleFunc("GET /v1/fleet/metrics", s.handleFleetMetrics)
	return s
}

// Handler returns the service's HTTP handler (for tests and
// embedding): the route mux wrapped in the observability middleware
// (request IDs, root spans, structured request logs).
func (s *Server) Handler() http.Handler { return s.middleware(s.mux) }

// Run serves on ln until ctx is canceled, then shuts down gracefully:
// the listener closes immediately, in-flight requests get up to
// DrainTimeout to complete, and Run returns nil on a clean drain.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.shutdownOnce.Do(func() { close(s.shutdown) })
		drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		defer cancel()
		err := srv.Shutdown(drainCtx)
		<-errc // Serve has returned http.ErrServerClosed
		return err
	}
}
