//go:build race

package engine

// raceEnabled reports whether the race detector is on. It makes
// sync.Pool drop pooled items at random, so allocation budgets that
// count on pooled scratch do not hold under it.
const raceEnabled = true
