package workload

import "unsafe"

// sweep is sweepGeneric in SSE2 assembly (sweep_amd64.s), two cells per
// packed instruction. Each lane rounds as the scalar instruction does, in
// sweepGeneric's float order, so the bits match, NaN payloads included
// wherever a single NaN reaches an operation.
func sweep(buf, grid []float64, n int, alpha float64) {
	if len(buf) < n*n || len(grid) < n*n {
		panic("workload: sweep on a grid shorter than n×n")
	}
	sweepSSE2(buf, grid, n, alpha)
}

//go:noescape
func sweepSSE2(buf, grid []float64, n int, alpha float64)

// putFloats writes vals into dst as little-endian float64 bits: on
// amd64, a little-endian machine, a copy of their memory.
func putFloats(dst []byte, vals []float64) { copy(dst, floatBytes(vals)) }

// getFloats is putFloats' inverse.
func getFloats(vals []float64, src []byte) { copy(floatBytes(vals), src) }

// floatBytes views the memory of vals as bytes.
func floatBytes(vals []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
}
