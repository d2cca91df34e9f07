package mpcquery

import (
	"math/rand"
	"testing"
)

// loadCapCase is one strategy family run under WithLoadCap.
type loadCapCase struct {
	family string
	q      *Query
	db     *Database
	s      Strategy
}

// loadCapCases returns one case per strategy family that reads a query.
func loadCapCases() []loadCapCase {
	rng := rand.New(rand.NewSource(1))
	m := 200
	n := int64(1 << 12)

	star := Star(2)
	starDB := SkewedStarDatabase(rng, 2, m, n, map[int64]int{7: m / 4})
	tri := Triangle()
	triDB := SkewedTriangleDatabase(rng, m, n, 7, m/4)
	chain := Chain(4)
	chainDB := ChainMatchingDatabase(rng, 4, m, n)

	return []loadCapCase{
		{"hypercube", star, starDB, HyperCube()},
		{"hypercube-oblivious", star, starDB, HyperCubeOblivious()},
		{"hypercube-shares", star, starDB, HyperCubeShares(4, 1, 1)},
		{"skewed-star", star, starDB, SkewedStar()},
		{"skewed-star-sampled", star, starDB, SkewedStarSampled(50)},
		{"skewed-triangle", tri, triDB, SkewedTriangle()},
		{"skewed-generic", star, starDB, SkewedGeneric()},
		{"chain-plan", chain, chainDB, ChainPlan(0)},
		{"greedy-plan", chain, chainDB, GreedyPlan(0)},
		{"greedy-plan-skew", chain, chainDB, GreedyPlanSkewAware(0)},
		{"auto", chain, chainDB, Auto()},
	}
}

// TestWithLoadCapSetsAbortedAllStrategies is the regression test for the
// load-cap plumbing: every strategy family — not just the HyperCube
// adapters — must honor WithLoadCap and surface the cluster's abort flag in
// Report.Aborted. A 1-bit cap is below any round's load, so every capped
// run must abort; the same run without a cap must not.
func TestWithLoadCapSetsAbortedAllStrategies(t *testing.T) {
	for _, tc := range loadCapCases() {
		t.Run(tc.family, func(t *testing.T) {
			capped, err := Run(tc.q, tc.db, WithStrategy(tc.s), WithServers(8),
				WithSeed(3), WithLoadCap(1))
			if err != nil {
				t.Fatalf("capped run: %v", err)
			}
			if !capped.Aborted {
				t.Errorf("%s: 1-bit load cap must set Report.Aborted", tc.family)
			}
			free, err := Run(tc.q, tc.db, WithStrategy(tc.s), WithServers(8), WithSeed(3))
			if err != nil {
				t.Fatalf("uncapped run: %v", err)
			}
			if free.Aborted {
				t.Errorf("%s: uncapped run must not abort", tc.family)
			}
			// The cap changes accounting, never the answer.
			if !EqualRelations(capped.Output, free.Output) {
				t.Errorf("%s: load cap changed the output", tc.family)
			}
		})
	}
}

// TestWithLoadCapBoundary pins the cap to the maximum load over every
// round of the run: the statistics round, every node of a multi-round
// plan, the aggregate shuffle. A cap equal to the uncapped Report's
// MaxLoadBits must not abort, and a cap one bit below it must abort with
// the same Output and TotalBits — a cap that reached only some of the
// run's clusters would miss the round carrying the maximum.
func TestWithLoadCapBoundary(t *testing.T) {
	type boundaryCase struct {
		family string
		q      *Query
		db     *Database
		opts   []RunOption
	}
	var cases []boundaryCase
	for _, tc := range loadCapCases() {
		cases = append(cases, boundaryCase{tc.family, tc.q, tc.db, []RunOption{WithStrategy(tc.s)}})
	}
	selfJoinDB, atoms := selfJoinPaths()
	cases = append(cases,
		boundaryCase{"selfjoin", nil, selfJoinDB, []RunOption{WithStrategy(SelfJoin("paths", atoms...))}},
		boundaryCase{"hypercube-aggregate", Star(2),
			SkewedStarDatabase(rand.New(rand.NewSource(5)), 2, 200, 1<<12, map[int64]int{7: 50}),
			[]RunOption{WithStrategy(HyperCube()), WithAggregate(AggCount, "", "z")}},
		// Without pushdown every join row crosses the aggregate shuffle,
		// which then carries the run's maximum load.
		boundaryCase{"hypercube-aggregate-raw", Star(2),
			SkewedStarDatabase(rand.New(rand.NewSource(5)), 2, 200, 1<<12, map[int64]int{7: 50}),
			[]RunOption{WithStrategy(HyperCube()), WithAggregate(AggCount, "", "x1", "x2"), WithAggregatePushdown(false)}})
	for _, tc := range cases {
		t.Run(tc.family, func(t *testing.T) {
			run := func(extra ...RunOption) *Report {
				t.Helper()
				opts := append([]RunOption{WithServers(8), WithSeed(3)}, tc.opts...)
				rep, err := Run(tc.q, tc.db, append(opts, extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			free := run()
			if free.MaxLoadBits <= 1 {
				t.Fatalf("uncapped max load %v too small to probe", free.MaxLoadBits)
			}
			if at := run(WithLoadCap(free.MaxLoadBits)); at.Aborted {
				t.Errorf("cap = MaxLoadBits %v aborted", free.MaxLoadBits)
			}
			below := run(WithLoadCap(free.MaxLoadBits - 1))
			if !below.Aborted {
				t.Errorf("cap = MaxLoadBits−1 %v did not abort", free.MaxLoadBits-1)
			}
			if below.TotalBits != free.TotalBits || !EqualRelations(below.Output, free.Output) {
				t.Error("the cap changed the output or the bits sent")
			}
		})
	}
	t.Run("direct-execute", func(t *testing.T) {
		q := Triangle()
		db := MatchingDatabase(rand.New(rand.NewSource(6)), q, 100, 1<<10)
		rep, err := HyperCube().Execute(ExecContext{Query: q, DB: db, Servers: 8, Seed: 3, LoadCapBits: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Aborted {
			t.Error("ExecContext.LoadCapBits = 1 did not abort a direct Execute")
		}
	})
}

// selfJoinPaths returns a random edge relation and the length-2 path query
// over it.
func selfJoinPaths() (*Database, []Atom) {
	rng := rand.New(rand.NewSource(2))
	edges := NewRelation("E", 2)
	for i := 0; i < 300; i++ {
		edges.Append(rng.Int63n(500), rng.Int63n(500))
	}
	db := NewDatabase(500)
	db.Add(edges)
	return db, []Atom{
		{Name: "E", Vars: []string{"x", "y"}},
		{Name: "E", Vars: []string{"y", "z"}},
	}
}

// TestWithLoadCapSelfJoin covers the SelfJoin strategy family, which
// carries its own query.
func TestWithLoadCapSelfJoin(t *testing.T) {
	db, atoms := selfJoinPaths()
	capped, err := Run(nil, db, WithStrategy(SelfJoin("paths", atoms...)),
		WithServers(8), WithSeed(3), WithLoadCap(1))
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Aborted {
		t.Error("selfjoin: 1-bit load cap must set Report.Aborted")
	}
	free, err := Run(nil, db, WithStrategy(SelfJoin("paths", atoms...)),
		WithServers(8), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if free.Aborted {
		t.Error("selfjoin: uncapped run must not abort")
	}
}

// TestGenerousLoadCapDoesNotAbort: a cap far above the observed load leaves
// Aborted unset for every family (the flag reflects a genuine violation,
// not the mere presence of a cap).
func TestGenerousLoadCapDoesNotAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	star := Star(2)
	db := SkewedStarDatabase(rng, 2, 200, 1<<12, map[int64]int{7: 50})
	for _, s := range []Strategy{HyperCube(), SkewedStar(), SkewedStarSampled(50), SkewedGeneric()} {
		rep, err := Run(star, db, WithStrategy(s), WithServers(8), WithSeed(3),
			WithLoadCap(1e12))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if rep.Aborted {
			t.Errorf("%s: generous cap aborted (load %v)", s.Name(), rep.MaxLoadBits)
		}
	}
}
