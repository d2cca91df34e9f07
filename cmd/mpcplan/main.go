// Command mpcplan is the planner CLI: given a conjunctive query, it prints
// its hypergraph invariants (τ*, ρ*, χ, radius/diameter), the packing
// polytope vertices with their load bounds, the LP-optimal HyperCube
// shares, the multi-round plan at a chosen space exponent, and the advisor
// options with the strategy to pass to Run / mpcrun for each.
//
// Usage:
//
//	mpcplan -query 'q(x,y,z) :- S1(x,y), S2(y,z), S3(z,x)' -p 64 \
//	        [-sizes 1048576,1048576,1048576] [-eps 0]
//
// Sizes are per-relation in bits and default to equal 2^20.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mpcquery"
	"mpcquery/internal/core"
	"mpcquery/internal/multiround"
	"mpcquery/internal/packing"
)

func main() {
	qs := flag.String("query", "q(x1,x2,x3) :- S1(x1,x2), S2(x2,x3), S3(x3,x1)", "query in datalog notation")
	p := flag.Int("p", 64, "number of servers")
	sizesFlag := flag.String("sizes", "", "comma-separated per-relation sizes in bits (default: equal 2^20)")
	eps := flag.Float64("eps", 0, "space exponent for the multi-round plan")
	dot := flag.Bool("dot", false, "print only the Graphviz hypergraph and exit")
	flag.Parse()

	q, err := mpcquery.ParseQuery(*qs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcplan: %v\n", err)
		os.Exit(2)
	}
	M := make([]float64, q.NumAtoms())
	for j := range M {
		M[j] = 1 << 20
	}
	if *sizesFlag != "" {
		parts := strings.Split(*sizesFlag, ",")
		if len(parts) != q.NumAtoms() {
			fmt.Fprintf(os.Stderr, "mpcplan: %d sizes for %d atoms\n", len(parts), q.NumAtoms())
			os.Exit(2)
		}
		for j, s := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "mpcplan: bad size %q\n", s)
				os.Exit(2)
			}
			M[j] = v
		}
	}

	if *dot {
		fmt.Print(q.DOT())
		return
	}

	fmt.Printf("query: %s\n", q)
	fmt.Printf("  variables=%d atoms=%d total arity=%d components=%d\n",
		q.NumVars(), q.NumAtoms(), q.TotalArity(), q.NumComponents())
	fmt.Printf("  characteristic χ(q)=%d  tree-like=%v\n", q.Characteristic(), q.IsTreeLike())
	if q.IsConnected() {
		fmt.Printf("  radius=%d diameter=%d\n", q.Radius(), q.Diameter())
	}

	tau, uStar := mpcquery.TauStar(q)
	rho, _ := packing.RhoStar(q)
	fmt.Printf("\nfractional bounds:\n")
	fmt.Printf("  τ* = %.4g (optimal packing %v)\n", tau, uStar)
	fmt.Printf("  ρ* = %.4g\n", rho)
	fmt.Printf("  one-round space exponent lower bound: ε ≥ %.4g\n", mpcquery.SpaceExponentLB(q))

	fmt.Printf("\npacking polytope vertices and their load bounds L(u,M,p) at p=%d:\n", *p)
	for _, u := range packing.Vertices(q) {
		fmt.Printf("  u=%v  L=%.4g bits\n", u, packing.Load(u, M, float64(*p)))
	}
	lower, best := mpcquery.LoadLowerBound(q, M, float64(*p))
	fmt.Printf("  L_lower = %.4g bits (argmax %v)\n", lower, best)

	plan := core.NewPlan(q, M, *p, core.SkewFree)
	fmt.Printf("\n%s\n", plan)
	obl := core.NewPlan(q, M, *p, core.SkewOblivious)
	fmt.Printf("\nskew-oblivious (LP 18): predicted load %.4g bits\n", obl.PredictedLoadBits())

	if q.IsConnected() {
		mr := multiround.GreedyPlan(q, *eps)
		fmt.Printf("\nmulti-round plan at ε=%.2f (%d rounds; Lemma 5.4 bound %d):\n%s",
			*eps, mr.Rounds(), mpcquery.RoundsUB(q, *eps), mr.Root)

		fmt.Printf("\nrounds/load tradeoff (advisor); run each via Run(q, db, WithStrategy(...)):\n")
		for _, o := range mpcquery.Advise(q, M, *p) {
			marker := ""
			if o.SkewRobust {
				marker = "  [skew-robust]"
			}
			fmt.Printf("  %-42s rounds=%d  load=%.4g bits%s\n     strategy: %s\n",
				o.Name, o.Rounds, o.PredictedLoadBits, marker, strategyFor(o))
		}
		ub, lb := mpcquery.RoundBounds(q, *eps)
		fmt.Printf("  theory at ε=%.2f: rounds ∈ [%d, %d]\n", *eps, lb, ub)
	}
}

// strategyFor maps an advisor option to the Run strategy constructor that
// executes it.
func strategyFor(o mpcquery.AdviceOption) string {
	switch {
	case o.Plan != nil:
		return fmt.Sprintf("GreedyPlan(%.2f)", o.SpaceExponent)
	case o.SkewRobust:
		return "HyperCubeOblivious()"
	default:
		return "HyperCube()"
	}
}
