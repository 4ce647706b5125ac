package ternary

import (
	"math/rand"
	"testing"
)

// TestLoadPadded pins the word-shift padding against SlotKey.
func TestLoadPadded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		narrow := 1 + rng.Intn(160)
		wide := narrow + rng.Intn(200)
		o := RandomKey(rng, narrow)

		want := NewKey(wide)
		want.SlotKey(0, o)
		got := RandomKey(rng, wide) // pre-filled with garbage to overwrite
		got.LoadPadded(o)
		if got.String() != want.String() {
			t.Fatalf("LoadPadded %d->%d:\n got %s\nwant %s", narrow, wide, got, want)
		}
	}
}

// TestLoadTop pins the word-wise load of a 65..128-bit number against
// SlotKey of its two halves into a zeroed key, at every alignment.
func TestLoadTop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 500; trial++ {
		n := 65 + rng.Intn(64)
		width := n + rng.Intn(200)
		hi, lo := rng.Uint64(), rng.Uint64()

		want := NewKey(width)
		want.SlotKey(0, KeyFromUint(hi, n-64))
		want.SlotKey(n-64, KeyFromUint(lo, 64))
		got := RandomKey(rng, width) // pre-filled with garbage to overwrite
		got.LoadTop(hi, lo, n)
		if got.String() != want.String() {
			t.Fatalf("LoadTop %d bits into %d:\n got %s\nwant %s", n, width, got, want)
		}
	}
	for _, c := range []struct{ n, width int }{{64, 160}, {129, 160}, {106, 104}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LoadTop of %d bits into width %d accepted", c.n, c.width)
				}
			}()
			k := NewKey(c.width)
			k.LoadTop(0, 0, c.n)
		}()
	}
}
