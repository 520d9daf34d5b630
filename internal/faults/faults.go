// Package faults supplies the fault substrate of simulated executions:
// arrival sources that say when errors strike (dist.go) and Corrupt,
// which materializes a silent data corruption as a bit flip in
// workload state. The engine's fault processes draw the paper's
// Poisson arrivals and attribute the strikes; this package holds what
// they share.
package faults

import (
	"respeed/internal/rngx"
)

// Corrupt flips one uniformly random bit of state, drawn with a single
// rng.Intn, modeling one SDC. It panics on empty state — corrupting
// nothing would silently bias detection experiments.
func Corrupt(rng *rngx.Stream, state []byte) {
	if len(state) == 0 {
		panic("faults: cannot corrupt empty state")
	}
	bit := rng.Intn(len(state) * 8)
	state[bit/8] ^= 1 << uint(bit%8)
}
