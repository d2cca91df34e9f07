package mpcquery_test

import (
	"fmt"
	"math/rand"

	"mpcquery"
)

// ExampleHyperCube computes the triangle query on 64 simulated servers
// and verifies the result against a sequential join.
func ExampleHyperCube() {
	q := mpcquery.Triangle()
	rng := rand.New(rand.NewSource(1))
	db := mpcquery.MatchingDatabase(rng, q, 1000, 1<<20)

	rep, err := mpcquery.Run(q, db, mpcquery.WithStrategy(mpcquery.HyperCube()),
		mpcquery.WithServers(64), mpcquery.WithSeed(42))
	if err != nil {
		panic(err)
	}
	want := mpcquery.SequentialAnswer(q, db)
	fmt.Println("servers:", rep.ServersUsed)
	fmt.Println("matches sequential:", rep.Output.NumTuples() == want.NumTuples())
	// Output:
	// servers: 64
	// matches sequential: true
}

// ExampleTauStar computes the fractional vertex covering number of the
// Table 2 families.
func ExampleTauStar() {
	for _, q := range []*mpcquery.Query{
		mpcquery.Triangle(), mpcquery.Chain(5), mpcquery.Star(7),
	} {
		tau, _ := mpcquery.TauStar(q)
		fmt.Printf("%s: τ* = %g\n", q.Name, tau)
	}
	// Output:
	// C3: τ* = 1.5
	// L5: τ* = 3
	// T7: τ* = 1
}

// ExampleChainPlan runs the Example 5.2 plan: L16 in two rounds of
// four-way joins at space exponent 1/2.
func ExampleChainPlan() {
	rng := rand.New(rand.NewSource(2))
	db := mpcquery.ChainMatchingDatabase(rng, 16, 200, 1<<20)
	rep, err := mpcquery.Run(mpcquery.Chain(16), db,
		mpcquery.WithStrategy(mpcquery.ChainPlan(0.5)), mpcquery.WithServers(16))
	if err != nil {
		panic(err)
	}
	fmt.Println("rounds:", rep.Rounds)
	fmt.Println("formula:", mpcquery.ChainRounds(16, 0.5))
	// Output:
	// rounds: 2
	// formula: 2
}

// ExampleParseQuery parses datalog-like notation and inspects the
// hypergraph.
func ExampleParseQuery() {
	q := mpcquery.MustParseQuery("q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
	fmt.Println("atoms:", q.NumAtoms())
	fmt.Println("tree-like:", q.IsTreeLike())
	fmt.Println("acyclic:", q.IsAcyclic())
	fmt.Printf("χ(q) = %d\n", q.Characteristic())
	// Output:
	// atoms: 3
	// tree-like: false
	// acyclic: false
	// χ(q) = 1
}

// ExampleAdvise prints the rounds/load tradeoff for L4.
func ExampleAdvise() {
	q := mpcquery.Chain(4)
	M := []float64{1 << 20, 1 << 20, 1 << 20, 1 << 20}
	for _, o := range mpcquery.Advise(q, M, 64) {
		fmt.Printf("%d round(s): %s\n", o.Rounds, o.Name)
	}
	// Output:
	// 1 round(s): 1-round HyperCube (LP 10)
	// 1 round(s): 1-round HyperCube, skew-oblivious (LP 18)
	// 2 round(s): 2-round plan (ε=0.00)
}
