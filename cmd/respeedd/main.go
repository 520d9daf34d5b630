// Command respeedd is the respeed planning daemon: a long-running
// HTTP/JSON service exposing the BiCrit solver surface over the
// platform catalog, with an LRU result cache, singleflight
// deduplication, bounded in-flight work, and graceful shutdown on
// SIGINT/SIGTERM. With -jobs-dir it additionally runs the crash-safe
// campaign subsystem behind /v1/jobs: sharded asynchronous campaigns,
// journaled to disk after every completed shard, resumed automatically
// when the daemon restarts over the same directory.
//
// Endpoints:
//
//	GET    /v1/solve?config=Hera/XScale&rho=3[&speeds=0.4,0.8][&single=1]
//	GET    /v1/sigma1-table?config=...&rho=...
//	GET    /v1/gain?config=...&rho=...
//	GET    /v1/simulate?config=...&rho=...[&n=10000][&seed=1][&scenario=...]
//	GET    /v1/simulate/events?config=...&rho=...[&n=10][&scenario=...]  (SSE)
//	GET    /v1/configs
//	POST   /v1/shards                 execute one campaign shard (fleet data plane)
//	POST   /v1/jobs                   submit a campaign (with -jobs-dir)
//	GET    /v1/jobs                   list jobs
//	GET    /v1/jobs/{id}              job status
//	GET    /v1/jobs/{id}/result      finished result
//	GET    /v1/jobs/{id}/events      SSE progress stream
//	GET    /v1/jobs/{id}/trace       flight-recorder shard timeline
//	DELETE /v1/jobs/{id}              cancel
//	GET    /v1/fleet/metrics          federated fleet exposition (coordinator only)
//	GET    /healthz                   liveness + build info
//	GET    /metrics                   Prometheus text (?format=json for the snapshot)
//	GET    /debug/traces              recent request traces (?id= ?name= ?limit= filters)
//
// With -debug-addr a second, private listener serves net/http/pprof
// profiles and expvar counters (keep it off the public network).
//
// Fleet mode: with -peers the daemon becomes a campaign COORDINATOR —
// jobs submitted to /v1/jobs are sharded and dispatched to the listed
// peer daemons' POST /v1/shards endpoints (requires -jobs-dir for the
// journal). Every daemon is also a shard WORKER: it serves /v1/shards
// for peer coordinators, gated by -fleet-token when set. Because
// shards are deterministic in (campaign, plan), a fleet-sharded
// campaign's result hash is byte-identical to a single-node run.
//
// Fleet observability: a coordinator scrapes every peer's /metrics at
// -fleet-scrape-interval and serves the merged, peer-labeled
// exposition on /v1/fleet/metrics; with -trace-remote (the default) it
// ships trace headers on every dispatch and grafts the worker's shard
// span into its own /debug/traces tree. Every campaign records a
// per-shard flight-recorder timeline on /v1/jobs/{id}/trace.
//
// Usage:
//
//	respeedd [-addr :8080] [-cache-size 4096] [-max-inflight N]
//	         [-request-timeout 10s] [-drain 15s] [-max-simulations 1000000]
//	         [-jobs-dir DIR] [-jobs-workers N] [-jobs-max 64]
//	         [-admit-policy SPEC] [-admit-express N] [-admit-queue N]
//	         [-admit-overload reject|degrade]
//	         [-peers URL[=W],URL[=W],...] [-fleet-policy round-robin|least-loaded|weighted]
//	         [-fleet-token TOKEN] [-fleet-max-shards N] [-fleet-heartbeat 2s]
//	         [-fleet-shard-timeout 2m] [-fleet-local]
//	         [-fleet-scrape-interval 10s] [-trace-remote]
//	         [-log-level info] [-log-format text] [-debug-addr ADDR]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"respeed"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")

	cacheSize := flag.Int("cache-size", 4096, "LRU result-cache capacity in entries (default 4096)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent solver computations (default 0 = GOMAXPROCS)")
	timeout := flag.Duration("request-timeout", 10*time.Second, "per-request wait bound (default 10s)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain bound (default 15s)")
	maxSim := flag.Int("max-simulations", 1_000_000, "cap on the n parameter of /v1/simulate (default 1000000)")

	jobsDir := flag.String("jobs-dir", "", "campaign journal directory; empty disables /v1/jobs")
	jobsWorkers := flag.Int("jobs-workers", 0, "max concurrently executing campaign shards (default 0 = GOMAXPROCS)")
	jobsMax := flag.Int("jobs-max", 64, "retained jobs cap; beyond it the oldest finished job is evicted (default 64)")

	admitPolicy := flag.String("admit-policy", "always",
		"admission policy: always | reject | token-bucket:rate=R,burst=B | fair-share:rate=R,burst=B,tenants=N")
	admitExpress := flag.Int("admit-express", 0,
		"express-lane slots for closed-form endpoints (default 0 = -max-inflight)")
	admitQueue := flag.Int("admit-queue", 0,
		"per-lane wait-queue bound; past it requests answer 429 immediately (0 = 4x the lane's slots, negative disables queueing)")
	admitOverload := flag.String("admit-overload", "reject",
		"saturated heavy-lane answer: reject (429 + Retry-After) or degrade (reduced-n partial estimate)")

	peers := flag.String("peers", "",
		"fleet peers to dispatch campaign shards to, comma-separated base URLs with optional weights (http://host:port[=W]); empty disables coordinator mode")
	fleetPolicy := flag.String("fleet-policy", "round-robin",
		"shard routing policy: round-robin | least-loaded | weighted")
	fleetToken := flag.String("fleet-token", "",
		"bearer token for /v1/shards: workers require it, coordinators present it (empty disables auth)")
	fleetMaxShards := flag.Int("fleet-max-shards", 0,
		"max concurrently executing remote shards on this worker (default 0 = 2x GOMAXPROCS)")
	fleetHeartbeat := flag.Duration("fleet-heartbeat", 2*time.Second,
		"peer health-probe interval (default 2s)")
	fleetShardTimeout := flag.Duration("fleet-shard-timeout", 2*time.Minute,
		"bound on one remote shard attempt before it is re-dispatched (default 2m)")
	fleetLocal := flag.Bool("fleet-local", true,
		"execute shards in-process when no peer is live (coordinator fallback; default true)")
	fleetScrape := flag.Duration("fleet-scrape-interval", 10*time.Second,
		"peer /metrics scrape interval feeding /v1/fleet/metrics (coordinator only; 0 disables federation)")
	traceRemote := flag.Bool("trace-remote", true,
		"propagate trace headers on shard dispatch and graft worker spans into /debug/traces (default true)")

	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log line format: text or json")
	debugAddr := flag.String("debug-addr", "", "private pprof/expvar listen address; empty disables it")
	flag.Parse()

	logger, err := respeed.NewStructuredLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "respeedd: %v\n", err)
		os.Exit(1)
	}

	policy, err := respeed.NewAdmissionPolicy(*admitPolicy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "respeedd: %v\n", err)
		os.Exit(1)
	}
	if *admitOverload != respeed.OverloadReject && *admitOverload != respeed.OverloadDegrade {
		fmt.Fprintf(os.Stderr, "respeedd: -admit-overload must be %q or %q (got %q)\n",
			respeed.OverloadReject, respeed.OverloadDegrade, *admitOverload)
		os.Exit(1)
	}

	// The heavy lane is built here, not inside the server, so campaign
	// shards and interactive /v1/simulate traffic share one compute
	// bound: shards wait (never shed) while foreground requests past
	// the queue bound fail fast or degrade.
	heavySlots := *maxInFlight
	if heavySlots <= 0 {
		heavySlots = runtime.GOMAXPROCS(0)
	}
	heavyQueue := *admitQueue
	if heavyQueue == 0 {
		heavyQueue = 4 * heavySlots
	}
	heavyLane := respeed.NewAdmitLane("heavy", heavySlots, heavyQueue)

	// One registry backs /metrics for the server, the job manager and
	// the engine-level counters, so a single scrape sees everything —
	// and one trace ring backs /debug/traces for HTTP requests and
	// campaign jobs, so a job ID finds every span it produced.
	telemetry := respeed.NewTelemetry()
	traceRing := respeed.NewTraceRing(0)

	// Every daemon is a fleet worker: peers may ship campaign shards to
	// its POST /v1/shards endpoint (503 only if explicitly disabled in
	// code; auth via -fleet-token).
	worker := respeed.NewFleetWorker(respeed.FleetWorkerOptions{
		MaxActive: *fleetMaxShards,
		Token:     *fleetToken,
		Registry:  telemetry,
		Logger:    logger,
	})

	// With -peers the daemon is additionally a coordinator: campaigns
	// submitted to /v1/jobs dispatch their shards across the fleet.
	var coordinator *respeed.FleetCoordinator
	if *peers != "" {
		if *jobsDir == "" {
			fmt.Fprintln(os.Stderr, "respeedd: -peers requires -jobs-dir (the coordinator journals every shard)")
			os.Exit(1)
		}
		peerList, err := respeed.ParseFleetPeers(*peers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "respeedd: %v\n", err)
			os.Exit(1)
		}
		policy, err := respeed.NewFleetPolicy(*fleetPolicy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "respeedd: %v\n", err)
			os.Exit(1)
		}
		coordinator, err = respeed.NewFleetCoordinator(respeed.FleetCoordinatorOptions{
			Peers:          peerList,
			Policy:         policy,
			Token:          *fleetToken,
			HeartbeatEvery: *fleetHeartbeat,
			ShardTimeout:   *fleetShardTimeout,
			LocalFallback:  *fleetLocal,
			LocalGate:      heavyLane,
			ScrapeInterval: *fleetScrape,
			TraceRemote:    *traceRemote,
			Registry:       telemetry,
			Logger:         logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "respeedd: %v\n", err)
			os.Exit(1)
		}
		defer coordinator.Close()
		logger.Info("fleet coordinator ready",
			"peers", len(peerList), "policy", policy.Name(),
			"heartbeat", *fleetHeartbeat, "shard_timeout", *fleetShardTimeout,
			"local_fallback", *fleetLocal,
			"scrape_interval", *fleetScrape, "trace_remote", *traceRemote)
	}

	var manager *respeed.JobManager
	if *jobsDir != "" {
		mopts := respeed.JobManagerOptions{
			Dir:      *jobsDir,
			Workers:  *jobsWorkers,
			MaxJobs:  *jobsMax,
			Logger:   logger,
			Registry: telemetry,
			Tracer:   traceRing,
			Gate:     heavyLane,
		}
		if coordinator != nil {
			// Coordinator mode: shards execute on PEERS, so they must not
			// hold local heavy-lane slots — the lane gates only the local
			// fallback (Coordinator.LocalGate above).
			mopts.Gate = nil
			mopts.ShardRunner = coordinator.RunShard
		}
		manager, err = respeed.NewJobManager(mopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "respeedd: %v\n", err)
			os.Exit(1)
		}
		logger.Info("campaign manager ready",
			"dir", *jobsDir, "retained", *jobsMax, "resumed", len(manager.List()))
	}

	srv := respeed.NewPlanningServer(respeed.ServeOptions{
		CacheSize:        *cacheSize,
		MaxInFlight:      *maxInFlight,
		RequestTimeout:   *timeout,
		DrainTimeout:     *drain,
		MaxSimulations:   *maxSim,
		Jobs:             manager,
		Logger:           logger,
		Registry:         telemetry,
		Tracer:           traceRing,
		Admission:        policy,
		ExpressInFlight:  *admitExpress,
		QueueBound:       *admitQueue,
		HeavyLane:        heavyLane,
		OverloadMode:     *admitOverload,
		FleetWorker:      worker,
		FleetCoordinator: coordinator,
	})
	logger.Info("admission ready",
		"policy", policy.Name(), "overload", *admitOverload,
		"heavy_slots", heavySlots, "queue_bound", heavyQueue)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "respeedd: %v\n", err)
		os.Exit(1)
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "respeedd: %v\n", err)
			os.Exit(1)
		}
		dbg := &http.Server{Handler: respeed.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go dbg.Serve(dln)
		defer dbg.Close()
		logger.Info("debug listener ready (pprof, expvar)", "addr", dln.Addr().String())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	build := respeed.ReadBuildInfo()
	logger.Info("serving",
		"addr", ln.Addr().String(), "cache", *cacheSize, "timeout", *timeout,
		"version", build.Version, "revision", build.VCSRevision)
	err = srv.Run(ctx, ln)
	if manager != nil {
		// Close after the HTTP drain: running shards finish their
		// current attempt and journal; unfinished jobs resume at the
		// next start.
		manager.Close()
	}
	if err != nil {
		logger.Error("shutdown error", "err", err)
		os.Exit(1)
	}
	logger.Info("drained and stopped")
}
