// Package hashing provides the seeded per-dimension hash functions and the
// hypercube coordinate grid used by the HyperCube algorithm (Section 3.1):
// servers are points of [p1]×…×[pk], and a tuple t of relation Sj is routed
// to the destination subcube D(t) = {y | ∀m: h_{i_m}(t[i_m]) = y_{i_m}}.
// Grid.Compile turns an atom's columns into a Route once per plan: D(t) is
// then a base server, summed from the tuple's bins and the grid strides,
// plus a precomputed table of free-dimension offsets, so routing a tuple
// allocates nothing.
//
// The paper assumes perfectly random (strongly universal) hash functions;
// we substitute a SplitMix64 finalizer keyed per (seed, dimension), whose
// balls-in-bins tails are validated empirically against the Appendix A
// bounds in package ballsbins.
package hashing

import "fmt"

// Family is a collection of independent hash functions, one per dimension
// (query variable), all derived from a single seed.
type Family struct {
	seeds []uint64
}

// NewFamily derives dims independent hash functions from seed.
func NewFamily(seed int64, dims int) *Family {
	f := &Family{seeds: make([]uint64, dims)}
	s := uint64(seed)
	for i := range f.seeds {
		s += 0x9e3779b97f4a7c15
		f.seeds[i] = mix64(s)
	}
	return f
}

// Hash returns the full 64-bit hash of value v under dimension dim's
// function.
func (f *Family) Hash(dim int, v int64) uint64 {
	return mix64(uint64(v) ^ f.seeds[dim])
}

// Bin returns h_dim(v) reduced to [0, share) — the coordinate of v along
// dimension dim in a grid with that many shares.
func (f *Family) Bin(dim int, v int64, share int) int {
	if share <= 1 {
		return 0
	}
	// Multiply-shift reduction avoids modulo bias for small share counts.
	h := f.Hash(dim, v)
	return int((h >> 32) * uint64(share) >> 32)
}

// mix64 is the SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 exposes the SplitMix64 finalizer for hash-table keying elsewhere in
// the tree (the local-join kernel's open-addressed indexes, relation content
// identities): a stateless, allocation-free 64-bit mixer.
func Mix64(z uint64) uint64 { return mix64(z) }

// Combine folds one more 64-bit value into a running hash. Chaining Combine
// over a sequence gives an order-sensitive digest suitable for multi-column
// join keys and content fingerprints.
func Combine(h, v uint64) uint64 {
	return mix64(h ^ (v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
}

// CombineSlice folds a whole []int64 key into a running hash starting from
// seed — the shared shape of every composite-key hash in the tree (group
// keys, combiner keys, routing keys). Distinct call sites keep distinct
// seeds so their hash spaces stay independent.
func CombineSlice(seed uint64, vals []int64) uint64 {
	h := seed
	for _, v := range vals {
		h = Combine(h, uint64(v))
	}
	return h
}

// Grid maps between linear server ids [0,p) and coordinate vectors of the
// k-dimensional hypercube [p1]×…×[pk], where p = Πᵢ pᵢ.
type Grid struct {
	Shares  []int
	strides []int
	p       int
}

// NewGrid builds a grid with the given per-dimension shares (each ≥ 1).
func NewGrid(shares []int) *Grid {
	p := 1
	strides := make([]int, len(shares))
	for i := len(shares) - 1; i >= 0; i-- {
		if shares[i] < 1 {
			panic(fmt.Sprintf("hashing: share %d of dimension %d", shares[i], i))
		}
		strides[i] = p
		p *= shares[i]
	}
	return &Grid{Shares: append([]int(nil), shares...), strides: strides, p: p}
}

// P returns the number of servers Πᵢ pᵢ covered by the grid.
func (g *Grid) P() int { return g.p }

// ServerOf linearizes a coordinate vector.
func (g *Grid) ServerOf(coords []int) int {
	s := 0
	for i, c := range coords {
		if c < 0 || c >= g.Shares[i] {
			panic(fmt.Sprintf("hashing: coordinate %d out of range for dimension %d (share %d)", c, i, g.Shares[i]))
		}
		s += c * g.strides[i]
	}
	return s
}

// CoordsOf writes the coordinate vector of a server id into out (which must
// have length len(Shares)) and returns it.
func (g *Grid) CoordsOf(server int, out []int) []int {
	for i := range g.Shares {
		out[i] = server / g.strides[i] % g.Shares[i]
	}
	return out
}

// Route is one atom's destination rule on a grid, compiled once per plan by
// Compile: the per-column share, stride and repeated-variable link, plus the
// free-dimension subcube as a table of server offsets. A tuple's
// destination subcube D(t) of equation (9) is then base + off for every off
// in Offsets, where base is the sum of bin × stride over its fixed columns —
// no per-tuple allocation, no per-destination call.
type Route struct {
	// Offsets lists the subcube relative to the base server, in odometer
	// order over the free dimensions of share > 1: the lowest free
	// dimension varies fastest. Always non-empty ({0} when no dimension is
	// free); len(Offsets) is the tuple's replication factor.
	Offsets []int

	arity int
	cols  []routeCol
}

// routeCol is one hashed column of a compiled route. Columns on share-1
// dimensions are dropped at compile time: their bin is always 0.
type routeCol struct {
	col    int // tuple column
	dim    int // grid (and hash) dimension
	share  int
	stride int
	same   int // index in cols of an earlier column on the same dimension, or -1
}

// Compile builds the route of an atom whose column c lies on grid
// dimension dims[c]. A dimension may appear twice (a repeated variable);
// tuples whose bins disagree on it then route nowhere.
func (g *Grid) Compile(dims []int) *Route {
	r := &Route{arity: len(dims)}
	fixed := make([]bool, len(g.Shares))
	for c, d := range dims {
		fixed[d] = true
		if g.Shares[d] == 1 {
			continue
		}
		same := -1
		for i, rc := range r.cols {
			if rc.dim == d {
				same = i
				break
			}
		}
		r.cols = append(r.cols, routeCol{col: c, dim: d, share: g.Shares[d], stride: g.strides[d], same: same})
	}
	r.Offsets = []int{0}
	for d, f := range fixed {
		if f {
			continue
		}
		// Dimension d varies slower than every earlier free dimension: the
		// existing table repeats once per further coordinate of d (none for
		// share 1).
		n := len(r.Offsets)
		for k := 1; k < g.Shares[d]; k++ {
			for _, off := range r.Offsets[:n] {
				r.Offsets = append(r.Offsets, off+k*g.strides[d])
			}
		}
	}
	return r
}

// BaseOfBins returns the base server of the subcube fixing compiled column
// c to coordinate bins[c] (bins has one entry per column of dims, as passed
// to Compile), or -1 when two columns on the same dimension disagree.
func (r *Route) BaseOfBins(bins []int) int {
	base := 0
	for _, rc := range r.cols {
		b := bins[rc.col]
		if rc.same >= 0 {
			if bins[r.cols[rc.same].col] != b {
				return -1
			}
			continue
		}
		base += b * rc.stride
	}
	return base
}

// Base returns the base server of tuple's subcube, hashing column c on
// dimension dims[c] with f, or -1 when the tuple routes nowhere (its
// repeated-variable bins disagree).
func (r *Route) Base(f *Family, tuple []int64) int {
	base := 0
	for _, rc := range r.cols {
		b := f.Bin(rc.dim, tuple[rc.col], rc.share)
		if rc.same >= 0 {
			if f.Bin(rc.dim, tuple[r.cols[rc.same].col], rc.share) != b {
				return -1
			}
			continue
		}
		base += b * rc.stride
	}
	return base
}

// Bases appends to out the Base of every tuple of the flat row-major block
// vals (arity len(dims), as passed to Compile) and returns the extended
// slice — the whole-batch form the HyperCube shuffle routes with.
func (r *Route) Bases(f *Family, vals []int64, out []int) []int {
	for off := 0; off < len(vals); off += r.arity {
		out = append(out, r.Base(f, vals[off:off+r.arity]))
	}
	return out
}
