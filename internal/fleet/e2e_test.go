// Multi-process fleet e2e: a coordinator in this process dispatches a
// campaign over two worker daemons running as real child processes on
// loopback. One worker is SIGKILLed mid-campaign; the coordinator must
// route around the corpse through the jobs retry path, finish the job,
// and produce a merged result whose FNV-64a hash is byte-identical to
// a single-node run of the same campaign — the fabric's whole claim.
package fleet_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"respeed/internal/fleet"
	"respeed/internal/jobs"
	"respeed/internal/serve"
)

const (
	helperEnv  = "RESPEED_FLEET_HELPER"
	fleetToken = "fleet-e2e-token"
)

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "worker" {
		os.Exit(workerMain())
	}
	os.Exit(m.Run())
}

// workerMain is the child process: one worker daemon on an ephemeral
// loopback port, its address announced on stdout. It serves until the
// parent kills it.
func workerMain() int {
	wkr := fleet.NewWorker(fleet.WorkerOptions{Token: fleetToken})
	srv := serve.New(serve.Options{FleetWorker: wkr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: listen: %v\n", err)
		return 1
	}
	fmt.Printf("WORKER_ADDR=http://%s\n", ln.Addr())
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "worker: serve: %v\n", err)
		return 1
	}
	return 0
}

// startWorkerProc launches one worker child and returns its base URL
// and the process handle.
func startWorkerProc(t *testing.T, exe string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(exe, "-test.run", "^TestMain$")
	cmd.Env = append(os.Environ(), helperEnv+"=worker")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "WORKER_ADDR="); ok {
			return addr, cmd
		}
	}
	t.Fatalf("worker never announced its address (scan err: %v)", sc.Err())
	return "", nil
}

// e2eCampaign is sized so its 64 chunk shards keep the fleet busy long
// enough to kill a worker mid-flight (~156k replications per chunk, the
// largest n the campaign validator admits).
func e2eCampaign() jobs.Campaign {
	return jobs.Campaign{
		Name:    "fleet-kill-e2e",
		Kind:    jobs.KindMonteCarlo,
		Configs: []string{"Hera/XScale"},
		Rhos:    []float64{3},
		N:       10_000_000,
		Seed:    5,
	}
}

func TestFleetSurvivesWorkerKill(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics differ on windows")
	}
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	w1URL, w1 := startWorkerProc(t, exe)
	w2URL, _ := startWorkerProc(t, exe)

	coord, err := fleet.NewCoordinator(fleet.Options{
		Peers:          []fleet.Peer{{URL: w1URL}, {URL: w2URL}},
		Token:          fleetToken,
		HeartbeatEvery: 100 * time.Millisecond,
		ShardTimeout:   time.Minute,
		// No local fallback: completing the job PROVES the re-dispatch
		// path, not a silent local bailout.
		LocalFallback: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	m, err := jobs.Open(jobs.Options{
		Dir:          t.TempDir(),
		ShardRetries: 5,
		RetryBackoff: 10 * time.Millisecond,
		ShardRunner:  coord.RunShard,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	st, err := m.Submit(e2eCampaign())
	if err != nil {
		t.Fatal(err)
	}

	// Kill worker 1 once some shards have landed, well before the
	// campaign is done, and while it holds a shard: that shard dies with
	// it. A kill between shards would exercise nothing.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		cur, err := m.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		// Snapshot lists the peers in configuration order: w1 first.
		if cur.ShardsDone >= 4 && coord.Snapshot()[0].InFlight >= 1 {
			if cur.ShardsDone >= cur.ShardsTotal {
				t.Fatalf("campaign finished (%d/%d shards) before the kill — enlarge e2eCampaign",
					cur.ShardsDone, cur.ShardsTotal)
			}
			t.Logf("killing %s at %d/%d shards, a shard in flight", w1URL, cur.ShardsDone, cur.ShardsTotal)
			if err := w1.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fin, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != jobs.StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	stats := coord.Stats()
	t.Logf("fleet stats after kill: %+v", stats)
	if stats.Redispatched < 1 {
		t.Error("no shard was re-dispatched — the kill exercised nothing")
	}
	if stats.LocalShards != 0 {
		t.Errorf("%d shards ran locally despite LocalFallback=false", stats.LocalShards)
	}

	// The determinism claim: a single-node run of the same campaign
	// hashes to the same bytes, kill or no kill.
	local, err := jobs.Open(jobs.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Close)
	lst, err := local.Submit(e2eCampaign())
	if err != nil {
		t.Fatal(err)
	}
	lfin, err := local.Wait(ctx, lst.ID)
	if err != nil || lfin.State != jobs.StateDone {
		t.Fatalf("local run: %v (state %s)", err, lfin.State)
	}
	if fin.Hash != lfin.Hash {
		t.Fatalf("hash mismatch: fleet %s vs local %s", fin.Hash, lfin.Hash)
	}
	t.Logf("byte-identical result %s across kill + re-dispatch", fin.Hash)
}
