package hashing

import "testing"

func BenchmarkBin(b *testing.B) {
	f := NewFamily(1, 3)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += f.Bin(i%3, int64(i), 16)
	}
	_ = sink
}

// BenchmarkRoute measures compiled routing of a whole batch: the bases of
// 4096 binary-atom tuples on a 3-dimensional grid, then the subcube
// enumeration of each (the routing inner loop of the HyperCube shuffle).
func BenchmarkRoute(b *testing.B) {
	const n = 4096
	g := NewGrid([]int{4, 4, 4})
	f := NewFamily(1, 3)
	r := g.Compile([]int{0, 1})
	vals := make([]int64, 2*n)
	for i := range vals {
		vals[i] = int64(i * 7919)
	}
	bases := make([]int, 0, n)
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(vals)))
	count := 0
	for i := 0; i < b.N; i++ {
		bases = r.Bases(f, vals, bases[:0])
		for _, base := range bases {
			for _, off := range r.Offsets {
				count += base + off
			}
		}
	}
	_ = count
}
