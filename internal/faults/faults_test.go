package faults

import (
	"bytes"
	"math/bits"
	"testing"

	"respeed/internal/rngx"
)

func newStream() *rngx.Stream { return rngx.NewStream(7, "faults-test") }

// flippedBits counts the bits in which a and b differ.
func flippedBits(a, b []byte) int {
	n := 0
	for i := range a {
		n += bits.OnesCount8(a[i] ^ b[i])
	}
	return n
}

func TestCorruptStateFlipsExactlyOneBit(t *testing.T) {
	state := make([]byte, 64)
	orig := append([]byte(nil), state...)
	Corrupt(newStream(), state)
	if n := flippedBits(state, orig); n != 1 {
		t.Errorf("flipped %d bits, want exactly 1", n)
	}
}

func TestCorruptStateCoversWholeState(t *testing.T) {
	// Over many corruptions every byte should eventually be hit.
	rng := newStream()
	state := make([]byte, 16)
	seen := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		before := append([]byte(nil), state...)
		Corrupt(rng, state)
		for j := range state {
			if state[j] != before[j] {
				seen[j] = true
			}
		}
	}
	if len(seen) != len(state) {
		t.Errorf("only %d/%d bytes ever corrupted", len(seen), len(state))
	}
}

// TestCorruptStateN pins that repeated corruptions are independent
// single flips drawn with replacement: the same bit may flip twice and
// cancel (as in real multi-hit upsets), so n corruptions leave at most
// n flipped bits, with the parity of n.
func TestCorruptStateN(t *testing.T) {
	rng := newStream()
	state := make([]byte, 1)
	orig := append([]byte(nil), state...)
	cancelled := false
	for n := 1; n <= 64; n++ {
		Corrupt(rng, state)
		got := flippedBits(state, orig)
		if got > n || got%2 != n%2 {
			t.Fatalf("after %d corruptions %d bits differ", n, got)
		}
		cancelled = cancelled || got < n
	}
	if !cancelled {
		t.Error("64 flips of an 8-bit state never hit the same bit twice")
	}
}

func TestCorruptEmptyStatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("corrupting empty state should panic")
		}
	}()
	Corrupt(newStream(), nil)
}

// TestResetRejectsBadArgs pins Renewal.Reset's argument checks: a
// renewal process needs a dist and a stream. (A replay schedule's times
// are checked by ValidateArrivalTimes; see TestScheduleValidation.)
func TestResetRejectsBadArgs(t *testing.T) {
	for name, f := range map[string]func(){
		"nil dist": func() { new(Renewal).Reset(nil, newStream()) },
		"nil rng":  func() { new(Renewal).Reset(Exponential{Rate: 1}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestDeterministicReplay pins that corruption is a pure function of
// the stream: two streams with the same seed material corrupt alike.
func TestDeterministicReplay(t *testing.T) {
	a, b := rngx.NewStream(42, "replay"), rngx.NewStream(42, "replay")
	sa, sb := make([]byte, 33), make([]byte, 33)
	for i := 0; i < 1000; i++ {
		Corrupt(a, sa)
		Corrupt(b, sb)
		if !bytes.Equal(sa, sb) {
			t.Fatalf("corruption divergence at %d", i)
		}
	}
}
