package localjoin

import (
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/localjoin/baseline"
)

// BenchmarkEvaluate measures the columnar kernel against the preserved
// baseline evaluator on every ablation shape. The acceptance gate for the
// kernel is ≥4× ns/op and ≥10× fewer allocs/op on the triangle and skewed
// star shapes; cmd/mpcbench -benchjoin emits the same comparison as
// BENCH_localjoin.json for CI.
func BenchmarkEvaluate(b *testing.B) {
	for _, shape := range BenchShapes() {
		b.Run(shape.Name+"/kernel", func(b *testing.B) {
			s := NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := s.Evaluate(shape.Q, shape.Rels)
				if out.NumTuples() == 0 {
					b.Fatal("no output")
				}
			}
		})
		b.Run(shape.Name+"/baseline", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := baseline.Evaluate(shape.Q, shape.Rels)
				if out.NumTuples() == 0 {
					b.Fatal("no output")
				}
			}
		})
	}
}

// BenchmarkEvaluateCached measures the shared-index path: the same fragment
// evaluated repeatedly with a warm IndexCache, the profile of a replicated
// HyperCube grid where whole server slices receive identical fragments.
func BenchmarkEvaluateCached(b *testing.B) {
	shape := BenchShapes()[0] // triangle
	s := NewScratch()
	byAtom := make([]*data.Relation, shape.Q.NumAtoms())
	for j, a := range shape.Q.Atoms {
		byAtom[j] = shape.Rels[a.Name]
	}
	cache := NewIndexCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := s.EvaluateAtoms(shape.Q, byAtom, cache)
		if out.NumTuples() == 0 {
			b.Fatal("no output")
		}
	}
}
