package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outcome classifies one op: answered correctly, failed (transport
// error, refusal such as a 429, or any non-success status), or answered
// wrongly.
type outcome int

const (
	opOK outcome = iota
	opFailed
	opWrong
)

// sliceLen is the length of one slice of the window. The end-to-end
// figures are medians over the slices, so a stall that hits one slice
// (a GC, a slow fsync, a burst on a shared host) does not move them.
const sliceLen = time.Second

// slice is what one slice of the window observed: the ops that
// completed in it, and the process CPU time and heap bytes it spent.
type slice struct {
	lat    []time.Duration
	cpu    time.Duration
	allocB uint64
	steal  float64 // share of the machine's CPU time the hypervisor took (a diagnostic)
}

// window is what one closed-loop measurement window observed.
type window struct {
	lat       []time.Duration // every successful op
	slices    []slice
	attempted int64
	failed    int64 // failed + wrong
	wrong     int64
	elapsed   time.Duration
	peakRSSKB int64
}

// done is one successful op: when it completed and how long it took.
type done struct {
	end, lat time.Duration
}

// mark is a reading of the process's resource counters.
type mark struct {
	cpu          time.Duration
	allocB       uint64
	steal, total uint64 // machine-wide CPU ticks
}

func readMark() mark {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	m := mark{cpu: cpuTime(), allocB: s[0].Value.Uint64()}
	m.steal, m.total = stealTicks()
	return m
}

// stealTicks reads the machine's stolen and total CPU ticks from
// /proc/stat (zero where it is unavailable).
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user … steal; guest time is already inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// closedLoop runs clients goroutines, each issuing op(c, k) for
// k = 0, 1, … and waiting for every answer before the next, until
// the window of n slices has passed. Ops are numbered per client, so a
// client's op sequence depends only on the seed. A sampler reads the
// resource counters at every slice boundary.
func closedLoop(clients, n int, op func(c, k int) outcome) window {
	runtime.GC()
	resetPeakRSS()
	dones := make([][]done, clients)
	counts := make([][3]int64, clients)
	marks := make([]mark, n+1)
	start := time.Now()
	marks[0] = readMark()
	deadline := start.Add(time.Duration(n) * sliceLen)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * sliceLen)))
			marks[i] = readMark()
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				t0 := time.Now()
				o := op(c, k)
				t1 := time.Now()
				counts[c][o]++
				if o == opOK {
					dones[c] = append(dones[c], done{end: t1.Sub(start), lat: t1.Sub(t0)})
				}
			}
		}(c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start), slices: make([]slice, n), peakRSSKB: peakRSSKB()}
	for i := range w.slices {
		a, b := marks[i], marks[i+1]
		w.slices[i].cpu = b.cpu - a.cpu
		w.slices[i].allocB = b.allocB - a.allocB
		if b.total > a.total {
			w.slices[i].steal = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
	}
	for c := range dones {
		for _, d := range dones[c] {
			w.lat = append(w.lat, d.lat)
			if i := int(d.end / sliceLen); i < n {
				w.slices[i].lat = append(w.slices[i].lat, d.lat)
			}
		}
		w.attempted += counts[c][opOK] + counts[c][opFailed] + counts[c][opWrong]
		w.failed += counts[c][opFailed] + counts[c][opWrong]
		w.wrong += counts[c][opWrong]
	}
	return w
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS clears the kernel's resident-set high-water mark
// (Linux: writing 5 to clear_refs). Failure only means the peak also
// covers set-up, so it is ignored.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSKB reads the resident-set high-water mark in KiB.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if v, err := strconv.ParseInt(f[0], 10, 64); err == nil {
						return v
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return ru.Maxrss
	}
	return 0
}

// quantile returns the q-quantile of sorted durations by the
// nearest-rank rule.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median of float64s (the slice is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// endToEnd derives the end-to-end metrics of a window: throughput, p50,
// CPU and allocation per op, each the median over the slices of the
// slice's own figure. The tail repeats too loosely on a shared host to
// carry a bound and is reported by the traced run instead.
func endToEnd(w window, setup []float64) (map[string]metric, error) {
	if len(w.lat) == 0 || w.attempted == 0 {
		return nil, fmt.Errorf("no op succeeded in the window")
	}
	var tput, p50, cpu, alloc []float64
	for _, s := range w.slices {
		n := float64(len(s.lat))
		if n == 0 {
			continue
		}
		sorted := append([]time.Duration(nil), s.lat...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		tput = append(tput, n/sliceLen.Seconds())
		p50 = append(p50, float64(quantile(sorted, 0.50))/1e6)
		cpu = append(cpu, float64(s.cpu)/1e6/n)
		alloc = append(alloc, float64(s.allocB)/1024/n)
	}
	if len(tput) == 0 {
		return nil, fmt.Errorf("no slice of the window completed an op")
	}
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"throughput_ops_s": {median(tput), "ops/s"},
		"latency_p50_ms":   {median(p50), "ms"},
		"cpu_ms_per_op":    {median(cpu), "ms"},
		"alloc_kb_per_op":  {median(alloc), "KiB"},
		"peak_rss_mb":      {float64(w.peakRSSKB) / 1024, "MiB"},
	}, nil
}
