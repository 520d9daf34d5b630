package detect

import "testing"

func benchState(n int) []byte {
	state := make([]byte, n)
	for i := range state {
		state[i] = byte(i * 31)
	}
	return state
}

func BenchmarkFNV64_4K(b *testing.B) {
	state := benchState(4096)
	d := FNV64{}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sum(state)
	}
}

func BenchmarkCRC32C_4K(b *testing.B) {
	state := benchState(4096)
	d := CRC32C{}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sum(state)
	}
}

// BenchmarkVerify checks one 2,064-byte state — a heat2d 16×16
// snapshot, the simulate shape's — against reference bytes: equal
// bytes pass on a compare, a mismatch digests both sides.
func BenchmarkVerify(b *testing.B) {
	const n = 2064
	ref := benchState(n)
	for _, tc := range []struct {
		name string
		flip bool
	}{{"equal", false}, {"mismatch", true}} {
		b.Run(tc.name, func(b *testing.B) {
			state := benchState(n)
			if tc.flip {
				state[n-1] ^= 1
			}
			v := NewVerifier(FNV64{})
			b.SetBytes(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Verify(state, ref)
			}
		})
	}
}
