package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"respeed/internal/fleet"
	"respeed/internal/jobs"
	"respeed/internal/obs"
	"respeed/internal/serve"
)

// system is one in-process respeed deployment: a front daemon (serving
// the planning API and the campaign endpoints) whose jobs.Manager
// journals to a fresh directory and dispatches every shard through a
// fleet.Coordinator to two worker daemons. All three daemons listen on
// loopback, so every request, shard and reply crosses real HTTP.
type system struct {
	dir     string
	front   *serve.Server
	mgr     *jobs.Manager
	coord   *fleet.Coordinator
	base    string       // front daemon URL
	client  *http.Client // the benchmark's clients share its connection pool
	fleetTr *http.Transport

	cancel context.CancelFunc
	runErr []chan error
}

// newSystem builds and starts a deployment whose journal lives in a
// fresh directory under root. conns is the number of client
// connections the benchmark keeps open to the front daemon. With a
// tracer, every Coordinator.RunShard call is recorded as a
// fleet.dispatch span of its job.
func newSystem(root string, conns int, tr *tracer) (sys *system, err error) {
	dir, err := os.MkdirTemp(root, "journal-")
	if err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sys = &system{dir: dir, cancel: cancel}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()

	var peers []fleet.Peer
	for i := 0; i < 2; i++ {
		w := serve.New(serve.Options{FleetWorker: fleet.NewWorker(fleet.WorkerOptions{})})
		url, err := sys.start(ctx, w)
		if err != nil {
			return nil, err
		}
		peers = append(peers, fleet.Peer{URL: url})
	}

	sys.fleetTr = &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	sys.coord, err = fleet.NewCoordinator(fleet.Options{
		Peers:  peers,
		Client: &http.Client{Transport: sys.fleetTr, Timeout: time.Minute},
	})
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	run := sys.coord.RunShard
	if tr != nil {
		run = func(ctx context.Context, c jobs.Campaign, sp jobs.ShardPlan, shard, attempt int) (json.RawMessage, error) {
			t0 := time.Now()
			raw, err := sys.coord.RunShard(ctx, c, sp, shard, attempt)
			// The manager puts the job id in the context as its request id.
			tr.add(tr.id(), 0, obs.RequestIDFrom(ctx), "fleet.dispatch", t0, time.Now())
			return raw, err
		}
	}
	reg := obs.NewRegistry()
	sys.mgr, err = jobs.Open(jobs.Options{Dir: dir, ShardRunner: run, Registry: reg})
	if err != nil {
		return nil, fmt.Errorf("jobs manager: %w", err)
	}
	sys.front = serve.New(serve.Options{Jobs: sys.mgr, FleetCoordinator: sys.coord, Registry: reg})
	if sys.base, err = sys.start(ctx, sys.front); err != nil {
		return nil, err
	}
	sys.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	return sys, nil
}

// start serves srv on a fresh loopback listener until the system's
// context is cancelled, returning its base URL.
func (sys *system) start(ctx context.Context, srv *serve.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	errc := make(chan error, 1)
	sys.runErr = append(sys.runErr, errc)
	go func() { errc <- srv.Run(ctx, ln) }()
	return "http://" + ln.Addr().String(), nil
}

// close drains every daemon, stops the manager and the coordinator,
// drops pooled connections and removes the journal directory. It waits
// for every goroutine the system started.
func (sys *system) close() error {
	var errs []error
	if sys.client != nil {
		sys.client.CloseIdleConnections()
	}
	sys.cancel()
	for _, errc := range sys.runErr {
		if err := <-errc; err != nil {
			errs = append(errs, fmt.Errorf("daemon: %w", err))
		}
	}
	if sys.mgr != nil {
		sys.mgr.Close()
	}
	if sys.coord != nil {
		sys.coord.Close()
	}
	if sys.fleetTr != nil {
		sys.fleetTr.CloseIdleConnections()
	}
	if err := os.RemoveAll(sys.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// get issues a GET against the front daemon and returns the status and
// the whole body.
func (sys *system) get(path string) (int, []byte, error) {
	resp, err := sys.client.Get(sys.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// post issues a POST with a JSON body against the front daemon.
func (sys *system) post(path string, body []byte) (int, []byte, error) {
	resp, err := sys.client.Post(sys.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// scrape reads the front daemon's /metrics exposition.
func (sys *system) scrape() (*obs.Exposition, error) {
	status, body, err := sys.get("/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	return obs.ParseExposition(body)
}

// sum totals every sample of a metric family in an exposition.
func sum(e *obs.Exposition, name string) float64 {
	var t float64
	for _, s := range e.Find(name) {
		t += s.Value
	}
	return t
}

// snapshot is a reading of the front daemon's counters.
type snapshot struct {
	exp   *obs.Exposition
	jobs  jobs.Stats
	fleet fleet.Stats
}

func takeSnapshot(sys *system) (*snapshot, error) {
	exp, err := sys.scrape()
	if err != nil {
		return nil, err
	}
	return &snapshot{exp: exp, jobs: sys.mgr.Stats(), fleet: sys.coord.Stats()}, nil
}

// delta is the change of a summed metric family between two readings.
func delta(before, after *snapshot, name string) float64 {
	return sum(after.exp, name) - sum(before.exp, name)
}
