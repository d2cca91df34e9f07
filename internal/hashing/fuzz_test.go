package hashing

import (
	"slices"
	"sort"
	"testing"
)

// routeCase decodes a fuzz input into a grid (1–4 dimensions, shares 1–4,
// so share-1 dimensions occur), an atom's dims (arity 1–3, repeats
// allowed), and a tuple over a small value range (so repeated-variable
// columns often agree).
func routeCase(shape []byte, vals [3]int64) (shares, dims []int, tuple []int64) {
	at := func(i int) int {
		if i < len(shape) {
			return int(shape[i])
		}
		return i
	}
	k := 1 + at(0)%4
	shares = make([]int, k)
	for i := range shares {
		shares[i] = 1 + at(1+i)%4
	}
	arity := 1 + at(5)%3
	dims = make([]int, arity)
	tuple = make([]int64, arity)
	for c := range dims {
		dims[c] = at(6+c) % k
		tuple[c] = vals[c] % 5
	}
	return shares, dims, tuple
}

// bruteDestinations scans every server of g and keeps those whose
// coordinates match the tuple's bins on every column, ordered like the
// routing odometer: by coordinates compared from the highest dimension
// down, so the lowest free dimension varies fastest.
func bruteDestinations(g *Grid, f *Family, dims []int, tuple []int64) []int {
	k := len(g.Shares)
	var out [][]int
	for s := 0; s < g.P(); s++ {
		coords := g.CoordsOf(s, make([]int, k))
		ok := true
		for c, d := range dims {
			if coords[d] != f.Bin(d, tuple[c], g.Shares[d]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, coords)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		for d := k - 1; d >= 0; d-- {
			if out[a][d] != out[b][d] {
				return out[a][d] < out[b][d]
			}
		}
		return false
	})
	servers := make([]int, len(out))
	for i, coords := range out {
		servers[i] = g.ServerOf(coords)
	}
	return servers
}

// FuzzRoute checks compiled routes against a brute-force scan of the grid:
// the same destination set in the same order for every tuple, and Bases
// over a block agreeing with per-tuple Base.
func FuzzRoute(f *testing.F) {
	f.Add(int64(1), []byte{2, 3, 3, 3, 0, 1, 0, 1, 2}, int64(4), int64(7), int64(9))
	f.Add(int64(2), []byte{1, 1, 0, 0, 0, 1, 0, 0, 0}, int64(3), int64(3), int64(0))
	f.Add(int64(3), []byte{3, 0, 3, 1, 2, 2, 0, 3, 0}, int64(1), int64(2), int64(1))
	f.Add(int64(4), []byte{0, 0}, int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, shape []byte, v0, v1, v2 int64) {
		shares, dims, tuple := routeCase(shape, [3]int64{v0, v1, v2})
		g := NewGrid(shares)
		fam := NewFamily(seed, len(shares))
		r := g.Compile(dims)
		got := destinations(r, fam, tuple)
		want := bruteDestinations(g, fam, dims, tuple)
		if !slices.Equal(got, want) {
			t.Fatalf("shares %v dims %v tuple %v: route %v, brute force %v", shares, dims, tuple, got, want)
		}
		block := append(append([]int64(nil), tuple...), tuple...)
		bases := r.Bases(fam, block, nil)
		if len(bases) != 2 || bases[0] != r.Base(fam, tuple) || bases[1] != bases[0] {
			t.Fatalf("Bases = %v, Base = %d", bases, r.Base(fam, tuple))
		}
	})
}
