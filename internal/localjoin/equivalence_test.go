package localjoin

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/localjoin/baseline"
	"mpcquery/internal/query"
)

// randomQuery draws a full conjunctive query from a space that covers
// everything the kernel must handle: multiple atoms, arities 1–3, repeated
// variables inside an atom, shared variables across atoms, and disconnected
// (cartesian) components.
func randomQuery(r *rand.Rand) *query.Query {
	nAtoms := 1 + r.Intn(4)
	varPool := []string{"x", "y", "z", "u", "v"}
	atoms := make([]query.Atom, nAtoms)
	for j := range atoms {
		arity := 1 + r.Intn(3)
		vars := make([]string, arity)
		for c := range vars {
			vars[c] = varPool[r.Intn(len(varPool))]
		}
		atoms[j] = query.Atom{Name: fmt.Sprintf("S%d", j+1), Vars: vars}
	}
	return query.New("q", atoms...)
}

// randomRels draws one relation per atom over a tiny domain so joins
// actually hit, with occasional empty relations to exercise the fast path.
func randomRels(r *rand.Rand, q *query.Query) map[string]*data.Relation {
	rels := make(map[string]*data.Relation, q.NumAtoms())
	for _, a := range q.Atoms {
		rel := data.NewRelation(a.Name, a.Arity())
		m := r.Intn(40)
		if r.Intn(12) == 0 {
			m = 0
		}
		row := make([]int64, a.Arity())
		for i := 0; i < m; i++ {
			for c := range row {
				row[c] = int64(r.Intn(8))
			}
			rel.AppendTuple(row)
		}
		rels[a.Name] = rel
	}
	return rels
}

// sameRelationExactly compares two relations tuple-for-tuple IN ORDER — the
// bit-identity Report.Fingerprint demands, strictly stronger than multiset
// equality.
func sameRelationExactly(a, b *data.Relation) bool {
	if a.Arity != b.Arity || a.NumTuples() != b.NumTuples() {
		return false
	}
	av, bv := a.Vals(), b.Vals()
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// TestKernelMatchesBaselineRandom is the property-based equivalence pin:
// over randomized queries and relations (seeded), the kernel must reproduce
// the baseline evaluator's output exactly — same tuples, same order, same
// multiplicities.
func TestKernelMatchesBaselineRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	s := NewScratch()
	for trial := 0; trial < 400; trial++ {
		q := randomQuery(r)
		rels := randomRels(r, q)
		got := s.Evaluate(q, rels)
		want := baseline.Evaluate(q, rels)
		if !sameRelationExactly(got, want) {
			t.Fatalf("trial %d: kernel diverged from baseline\nquery: %s\nkernel %d tuples, baseline %d tuples",
				trial, q, got.NumTuples(), want.NumTuples())
		}
		if !data.EqualMultiset(got, want) {
			t.Fatalf("trial %d: multiset mismatch on %s", trial, q)
		}
	}
}

// TestKernelCachedSharedAcrossWorkers drives the IndexCache exactly as a
// computation phase does — many workers, shared cache, content-identical
// fragments — and pins every result against the baseline. Run under -race
// this is also the cache's concurrency test.
func TestKernelCachedSharedAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		q := randomQuery(r)
		rels := randomRels(r, q)
		byAtom := make([]*data.Relation, q.NumAtoms())
		for j, a := range q.Atoms {
			byAtom[j] = rels[a.Name]
		}
		want := baseline.Evaluate(q, rels)

		cache := NewIndexCache()
		const workers = 8
		results := make([]*data.Relation, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := GrabScratch()
				defer sc.Release()
				// Each worker evaluates several times, as servers of one
				// phase would; the last result is compared.
				for i := 0; i < 3; i++ {
					results[w] = sc.EvaluateAtoms(q, byAtom, cache)
				}
			}(w)
		}
		wg.Wait()
		for w, got := range results {
			if !sameRelationExactly(got, want) {
				t.Fatalf("trial %d worker %d: cached kernel diverged from baseline on %s", trial, w, q)
			}
		}
		hasEmpty := false
		for _, rel := range byAtom {
			hasEmpty = hasEmpty || rel.NumTuples() == 0
		}
		if hits, misses := cache.Stats(); !hasEmpty && misses == 0 {
			t.Fatalf("trial %d: cache reports no builds (hits=%d)", trial, hits)
		}
	}
}

// TestIndexCacheSharesIdenticalFragments verifies the cache's reason to
// exist: two distinct relation objects with identical content must share
// one index build.
func TestIndexCacheSharesIdenticalFragments(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	mk := func() []*data.Relation {
		rr := data.FromTuples("R", 2, []int64{1, 2}, []int64{3, 4})
		ss := data.FromTuples("S", 2, []int64{2, 5}, []int64{4, 6})
		return []*data.Relation{rr, ss}
	}
	cache := NewIndexCache()
	s := NewScratch()
	out1 := s.EvaluateAtoms(q, mk(), cache)
	out2 := s.EvaluateAtoms(q, mk(), cache) // fresh objects, same content
	if !sameRelationExactly(out1, out2) {
		t.Fatal("identical fragments produced different results")
	}
	hits, misses := cache.Stats()
	if misses != 2 {
		t.Fatalf("want 2 index builds (one per atom), got %d", misses)
	}
	if hits != 2 {
		t.Fatalf("want 2 cache hits on the second evaluation, got %d", hits)
	}
}

// TestScratchFragmentReuseDoesNotCorruptCache pins the aliasing hazard the
// cache's copy-on-build exists for: a worker's fragment buffers are reset
// and refilled between servers, and a cached index built from the earlier
// content must keep answering from its own snapshot.
func TestScratchFragmentReuseDoesNotCorruptCache(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	cache := NewIndexCache()
	s := NewScratch()

	frag := s.Fragments(q)
	frag[0].AppendVals([]int64{1, 10, 2, 20})
	frag[1].AppendVals([]int64{10, 100, 20, 200})
	first := s.EvaluateAtoms(q, frag, cache).Clone()

	// Rebuild the same scratch fragments with different content (as the
	// next server would), evaluate, then return to the original content: the
	// third evaluation must hit the cache entries snapshotted at build time
	// and still agree with the first.
	frag = s.Fragments(q)
	frag[0].AppendVals([]int64{7, 8})
	frag[1].AppendVals([]int64{8, 9})
	if out := s.EvaluateAtoms(q, frag, cache); out.NumTuples() != 1 {
		t.Fatalf("intermediate content: got %d tuples, want 1", out.NumTuples())
	}
	frag = s.Fragments(q)
	frag[0].AppendVals([]int64{1, 10, 2, 20})
	frag[1].AppendVals([]int64{10, 100, 20, 200})
	again := s.EvaluateAtoms(q, frag, cache)
	if !sameRelationExactly(first, again) {
		t.Fatal("cached index answered from recycled fragment storage")
	}
}

// TestEvaluatePanicsTypedOnMissingRelation: the validated-input entry point
// panics with the same typed error, which the Run boundary converts.
func TestEvaluatePanicsTypedOnMissingRelation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrMissingRelation) {
			t.Fatalf("panic value %v is not a typed missing-relation error", r)
		}
	}()
	q := query.MustParse("q(x,y) :- R(x), S(y)")
	Evaluate(q, map[string]*data.Relation{"R": data.FromTuples("R", 1, []int64{1})})
}

// TestBaselineModeSwitch: under SetBaselineForTest every entry point runs
// the frozen evaluator; outputs must match the kernel's exactly either way.
func TestBaselineModeSwitch(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	q := randomQuery(r)
	rels := randomRels(r, q)
	kernelOut := Evaluate(q, rels)
	SetBaselineForTest(true)
	defer SetBaselineForTest(false)
	baselineOut := Evaluate(q, rels)
	if !sameRelationExactly(kernelOut, baselineOut) {
		t.Fatalf("kernel and baseline disagree on %s", q)
	}
}
