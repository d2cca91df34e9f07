package hashing

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFamilyDeterministicAndIndependent(t *testing.T) {
	f1 := NewFamily(42, 3)
	f2 := NewFamily(42, 3)
	f3 := NewFamily(43, 3)
	if f1.Hash(0, 7) != f2.Hash(0, 7) {
		t.Error("same seed must give same hashes")
	}
	if f1.Hash(0, 7) == f3.Hash(0, 7) {
		t.Error("different seeds should give different hashes")
	}
	if f1.Hash(0, 7) == f1.Hash(1, 7) {
		t.Error("dimensions should hash independently")
	}
}

func TestBinRange(t *testing.T) {
	f := NewFamily(1, 2)
	rng := rand.New(rand.NewSource(1))
	check := func(v int64, share int) bool {
		if share < 1 {
			share = 1
		}
		share = share%100 + 1
		b := f.Bin(0, v, share)
		return b >= 0 && b < share
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000, Rand: rng}); err != nil {
		t.Error(err)
	}
	if f.Bin(0, 12345, 1) != 0 {
		t.Error("share=1 must map everything to bin 0")
	}
}

func TestBinBalance(t *testing.T) {
	f := NewFamily(99, 1)
	const share = 16
	counts := make([]int, share)
	const n = 160000
	for v := int64(0); v < n; v++ {
		counts[f.Bin(0, v, share)]++
	}
	want := n / share
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bin %d: %d items, want ≈%d", b, c, want)
		}
	}
}

func TestGridRoundTrip(t *testing.T) {
	g := NewGrid([]int{4, 3, 2})
	if g.P() != 24 {
		t.Fatalf("P=%d want 24", g.P())
	}
	coords := make([]int, 3)
	seen := make(map[int]bool)
	for a := 0; a < 4; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 2; c++ {
				s := g.ServerOf([]int{a, b, c})
				if s < 0 || s >= 24 || seen[s] {
					t.Fatalf("bad/duplicate server %d for (%d,%d,%d)", s, a, b, c)
				}
				seen[s] = true
				got := g.CoordsOf(s, coords)
				if got[0] != a || got[1] != b || got[2] != c {
					t.Fatalf("CoordsOf(%d)=%v want (%d,%d,%d)", s, got, a, b, c)
				}
			}
		}
	}
}

// destinations lists the subcube of a tuple under r, in routing order.
func destinations(r *Route, f *Family, tuple []int64) []int {
	base := r.Base(f, tuple)
	if base < 0 {
		return nil
	}
	out := make([]int, len(r.Offsets))
	for i, off := range r.Offsets {
		out[i] = base + off
	}
	return out
}

func TestDestinationsSubcube(t *testing.T) {
	g := NewGrid([]int{4, 4, 4})
	f := NewFamily(3, 3)
	// Fix dimensions 0 and 1 by hashing: 4 destinations (free dim 2).
	tuple := []int64{17, 99}
	r := g.Compile([]int{0, 1})
	got := destinations(r, f, tuple)
	if len(got) != 4 || len(r.Offsets) != 4 {
		t.Fatalf("destinations=%d (offsets %d) want 4", len(got), len(r.Offsets))
	}
	coords := make([]int, 3)
	for _, s := range got {
		g.CoordsOf(s, coords)
		if coords[0] != f.Bin(0, 17, 4) || coords[1] != f.Bin(1, 99, 4) {
			t.Errorf("server %d coords %v: fixed dims wrong", s, coords)
		}
	}
	if base := r.BaseOfBins([]int{2, 3}); base != g.ServerOf([]int{2, 3, 0}) {
		t.Errorf("BaseOfBins = %d want %d", base, g.ServerOf([]int{2, 3, 0}))
	}
}

func TestDestinationsAllFree(t *testing.T) {
	g := NewGrid([]int{2, 3})
	r := g.Compile(nil)
	if got := destinations(r, NewFamily(1, 2), nil); len(got) != 6 {
		t.Errorf("broadcast subcube size=%d want 6", len(got))
	}
	// Odometer order: dimension 0 varies fastest.
	want := []int{0, 3, 1, 4, 2, 5}
	for i, off := range r.Offsets {
		if off != want[i] {
			t.Fatalf("Offsets = %v want %v", r.Offsets, want)
		}
	}
}

func TestDestinationsRepeatedDim(t *testing.T) {
	g := NewGrid([]int{4, 4})
	r := g.Compile([]int{0, 0})
	// Same dimension fixed twice with equal bins: one free dim remains.
	if base := r.BaseOfBins([]int{1, 1}); base != g.ServerOf([]int{1, 0}) || len(r.Offsets) != 4 {
		t.Errorf("consistent repeat: base %d, %d offsets; want %d, 4", base, len(r.Offsets), g.ServerOf([]int{1, 0}))
	}
	// Conflicting bins: empty subcube.
	if base := r.BaseOfBins([]int{1, 2}); base != -1 {
		t.Errorf("conflicting repeat: base %d want -1", base)
	}
	f := NewFamily(8, 2)
	if got := destinations(r, f, []int64{5, 5}); len(got) != 4 {
		t.Errorf("equal values on a repeated dim: %d destinations want 4", len(got))
	}
}

func TestDestinationsCoverGrid(t *testing.T) {
	// Over all values v, destinations with dim 0 fixed by hash partition the
	// grid: each server appears for exactly the v values hashing to its
	// coordinate. Sanity-check totals.
	g := NewGrid([]int{3, 2})
	f := NewFamily(5, 2)
	r := g.Compile([]int{0})
	counts := make([]int, g.P())
	for v := int64(0); v < 300; v++ {
		for _, s := range destinations(r, f, []int64{v}) {
			counts[s]++
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 600 { // 300 values × subcube size 2
		t.Errorf("total deliveries=%d want 600", total)
	}
}
