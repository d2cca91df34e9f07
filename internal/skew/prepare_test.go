package skew

import (
	"math/rand"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

func skewedTriDB(seed int64, m int, n int64, h, cnt int) *data.Database {
	rng := rand.New(rand.NewSource(seed))
	db := data.NewDatabase(n)
	for _, name := range []string{"S1", "S2", "S3"} {
		r := data.NewRelation(name, 2)
		i := 0
		for v := 0; v < h; v++ {
			for c := 0; c < cnt && i < m; c++ {
				r.Append(int64(v+1), rng.Int63n(n))
				i++
			}
		}
		for v := 0; v < h; v++ {
			for c := 0; c < cnt && i < m; c++ {
				r.Append(rng.Int63n(n), int64(v+1))
				i++
			}
		}
		for ; i < m; i++ {
			r.Append(rng.Int63n(n), rng.Int63n(n))
		}
		db.Add(r)
	}
	return db
}

// TestGenericRouteIndexMatchesBruteForce pins the routing index to its
// specification: for every tuple of every relation, the pattern list under
// the tuple's heavy/light signature must be exactly the patterns the
// brute-force matches() predicate accepts, in enumeration order.
func TestGenericRouteIndexMatchesBruteForce(t *testing.T) {
	q := query.Triangle()
	db := skewedTriDB(7, 400, 1<<16, 4, 30)
	gp := PrepareGeneric(q, db, 16, 6)

	checked := 0
	for j, a := range q.Atoms {
		rel := db.Get(a.Name)
		dims := gp.atomDims[j]
		var sig []byte
		for i := 0; i < rel.NumTuples(); i++ {
			tuple := rel.Tuple(i)
			sig = appendSignature(sig[:0], dims, func(c, d int) (int64, bool) {
				return tuple[c], gp.heavy[d][tuple[c]]
			})
			indexed := gp.routes[j][string(sig)]
			var brute []*genPattern
			for _, pat := range gp.patterns {
				if pat.matches(dims, tuple, gp.heavy) {
					brute = append(brute, pat)
				}
			}
			if len(indexed) != len(brute) {
				t.Fatalf("atom %d tuple %v: index has %d patterns, brute force %d", j, tuple, len(indexed), len(brute))
			}
			for k := range brute {
				if indexed[k] != brute[k] {
					t.Fatalf("atom %d tuple %v: pattern order diverges at %d", j, tuple, k)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no tuples checked")
	}
}

// TestPreparedRunsMatchUnprepared asserts the prepare/execute split is pure
// refactoring: a plan prepared once and reused across seeds produces, seed
// for seed, exactly the result of a fresh Prepare* per run — preparation
// holds no seed-dependent state.
func TestPreparedRunsMatchUnprepared(t *testing.T) {
	n := int64(1 << 16)
	rng := rand.New(rand.NewSource(3))
	same := func(a, b *Result) bool {
		return a.MaxLoadBits == b.MaxLoadBits && a.TotalBits == b.TotalBits && a.Aborted == b.Aborted &&
			a.ServersUsed == b.ServersUsed && a.HeavyHitters == b.HeavyHitters && data.Equal(a.Output, b.Output)
	}
	seeds := []int64{5, 6, 7}

	star := query.Star(2)
	starDB := data.SkewedStarDatabase(rng, 2, 500, n, map[int64]int{7: 60, 9: 40})
	sp := PrepareStar(star, starDB, 16)
	for _, seed := range seeds {
		reused := RunStar(sp, star, starDB, 16, seed, engine.Env{})
		if !same(reused, runStar(star, starDB, 16, seed)) {
			t.Errorf("star seed %d: reused plan differs from a fresh one", seed)
		}
		if sp.HeavyHitters() != reused.HeavyHitters || sp.ServersUsed() != reused.ServersUsed {
			t.Errorf("star plan accessors disagree with the run: %d/%d vs %d/%d",
				sp.HeavyHitters(), sp.ServersUsed(), reused.HeavyHitters, reused.ServersUsed)
		}
	}

	tri := query.Triangle()
	triDB := data.SkewedTriangleDatabase(rng, 500, n, 7, 60)
	tp := PrepareTriangle(tri, triDB, 16)
	for _, seed := range seeds {
		reused := RunTriangle(tp, tri, triDB, 16, seed, engine.Env{})
		if !same(reused, runTriangle(tri, triDB, 16, seed)) {
			t.Errorf("triangle seed %d: reused plan differs from a fresh one", seed)
		}
		if tp.HeavyHitters() != reused.HeavyHitters || tp.ServersUsed() != reused.ServersUsed {
			t.Error("triangle plan accessors disagree with the run")
		}
	}

	genDB := skewedTriDB(11, 400, n, 3, 30)
	gp := PrepareGeneric(tri, genDB, 16, 6)
	for _, seed := range seeds {
		reused := RunGeneric(gp, tri, genDB, 16, seed, engine.Env{})
		if !same(reused, runGeneric(tri, genDB, 16, seed, 6)) {
			t.Errorf("generic seed %d: reused plan differs from a fresh one", seed)
		}
		if gp.NumPatterns() < 2 || gp.HeavyHitters() != reused.HeavyHitters {
			t.Errorf("generic plan accessors look wrong: %d patterns, %d heavy", gp.NumPatterns(), gp.HeavyHitters())
		}
	}
}

// TestAddStatsChargesAccounting asserts the cached-vs-charged seam: merging
// a StatsResult must add its round and bits, take the load max, recompute
// replication, and join the abort flag — exactly what runStarSampled (and
// the sampled-star strategy) does after the data round.
func TestAddStatsChargesAccounting(t *testing.T) {
	res := &Result{Rounds: 1, MaxLoadBits: 100, TotalBits: 1000, InputBits: 500}
	st := &StatsResult{Rounds: 1, MaxLoadBits: 250, TotalBits: 300, Aborted: true}
	AddStatsCharges(res, st)
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Rounds)
	}
	if res.TotalBits != 1300 {
		t.Errorf("total = %v, want 1300", res.TotalBits)
	}
	if res.MaxLoadBits != 250 {
		t.Errorf("max load = %v, want 250 (stats round dominates)", res.MaxLoadBits)
	}
	if res.ReplicationRate != 1300.0/500 {
		t.Errorf("replication = %v, want %v", res.ReplicationRate, 1300.0/500)
	}
	if !res.Aborted {
		t.Error("abort flag not joined")
	}
}

// TestStarStatsSpecDeterministic asserts the spec derivation and protocol
// run are deterministic — the property that makes the stats cache sound.
func TestStarStatsSpecDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := query.Star(2)
	db := data.SkewedStarDatabase(rng, 2, 400, 1<<16, map[int64]int{7: 50})
	spec := StarStatsSpec(q, db, 16)
	st1 := spec.Run(16, 100, 42, 0)
	st2 := StarStatsSpec(q, db, 16).Run(16, 100, 42, 0)
	if st1.MaxLoadBits != st2.MaxLoadBits || st1.TotalBits != st2.TotalBits || st1.Rounds != st2.Rounds {
		t.Error("stats protocol not deterministic for fixed inputs")
	}
	if len(st1.PerAtom) != len(st2.PerAtom) {
		t.Fatal("estimate shapes differ")
	}
	for j := range st1.PerAtom {
		if len(st1.PerAtom[j]) != len(st2.PerAtom[j]) {
			t.Fatalf("atom %d: %d vs %d estimates", j, len(st1.PerAtom[j]), len(st2.PerAtom[j]))
		}
		for v, c := range st1.PerAtom[j] {
			if st2.PerAtom[j][v] != c {
				t.Fatalf("atom %d value %d: %d vs %d", j, v, c, st2.PerAtom[j][v])
			}
		}
	}
}
