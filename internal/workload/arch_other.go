//go:build !amd64

package workload

// Other GOARCHes sweep and serialize with the portable code, the
// reference the amd64 paths are tested against.

func sweep(buf, grid []float64, n int, alpha float64) { sweepGeneric(buf, grid, n, alpha) }

func putFloats(dst []byte, vals []float64) { putFloatsGeneric(dst, vals) }

func getFloats(vals []float64, src []byte) { getFloatsGeneric(vals, src) }
