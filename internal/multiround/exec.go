package multiround

import (
	"fmt"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/skew"
)

// ExecResult reports an executed multi-round plan.
type ExecResult struct {
	Output *data.Relation

	Rounds      int
	RoundLoads  []float64 // max bits received by any server, per round
	MaxLoadBits float64   // L = max over rounds
	TotalBits   float64
	InputBits   float64
	// MaxViewTuples is the largest materialized intermediate view. On
	// matching databases the paper's multi-round analysis relies on
	// intermediates staying O(m); this makes that observable.
	MaxViewTuples int
	// Aborted is set when a declared load cap was exceeded by any node of
	// any round (Section 2.1's abort semantics).
	Aborted bool

	// AggregateBitsSaved is the communication the root node's pre-shuffle
	// partial aggregation removed; 0 for plain and no-pushdown runs.
	AggregateBitsSaved float64

	// Wall-clock split summed over every node's cluster (not model costs):
	// seconds in local computation vs simulated communication delivery.
	ComputeSeconds float64
	CommSeconds    float64
}

// nodeResult is what the pluggable one-round operator reports per node.
type nodeResult struct {
	out       *data.Relation
	loadBits  float64 // load of the node's primary round
	totalBits float64
	aborted   bool
	computeS  float64
	commS     float64

	// extraLoads are per-round loads beyond the node's primary round (the
	// root's aggregate shuffle); each is an additional plan round.
	extraLoads []float64
	aggSaved   float64
}

// Memo is an optional per-node artifact memoizer supplied by a caching
// caller (the query service). It must return the value computed by an
// earlier call with the same key, or run compute and return its result. The
// per-node artifacts memoized here (HyperCube plans, skew layouts for the
// intermediate views) are deterministic in (plan, database, servers, seed),
// which the caller encodes in the key prefix; a nil Memo recomputes
// everything, and both paths execute identically.
type Memo func(key string, compute func() any) any

func (m Memo) do(key string, compute func() any) any {
	if m == nil {
		return compute()
	}
	return m(key, compute)
}

// Execute runs the plan on db with a budget of p servers per round, every
// node's rounds delivered and metered through env. Nodes at the same depth
// execute in the same communication round, splitting the p servers evenly;
// the round's load is the maximum over its nodes, and the plan's load L is
// the maximum over rounds — exactly the model's metric. Nodes execute
// sequentially, so a distributed run attaches one cluster at a time, in the
// same deterministic order at every rank.
//
// The declared load cap (env.LoadCapBits) applies to every node of every
// round, and the result's Aborted flag is set if any of them exceeded it.
// A non-nil agg is computed at the root node: intermediate views stay full
// joins (later rounds need every binding), and the root's aggregate-shuffle
// round is appended to the plan's round accounting. Per-node HyperCube
// plans are drawn from memo (nil = recompute): every node of every round
// needs a share-LP solve over its intermediate views, and a service
// replaying the same multi-round query can reuse them all.
func Execute(p *Plan, db *data.Database, servers int, seed int64, agg *aggregate.Plan, memo Memo, env engine.Env) *ExecResult {
	return executeWith(p, db, servers, func(n *Node, sub *data.Database, perNode int, d int) nodeResult {
		pl := memo.do(fmt.Sprintf("node|%s|d%d|pn%d|s%d", n.Name, d, perNode, seed), func() any {
			return core.PlanForDatabase(n.Query, sub, perNode, core.SkewFree)
		}).(*core.Plan)
		var rootAgg *aggregate.Plan
		if n == p.Root {
			rootAgg = agg
		}
		run := core.RunPlan(pl, sub, seed+int64(d), rootAgg, env)
		return nodeResult{out: run.Output, loadBits: run.RoundLoads[0], totalBits: run.TotalBits, aborted: run.Aborted,
			computeS: run.ComputeSeconds, commS: run.CommSeconds,
			extraLoads: run.RoundLoads[1:], aggSaved: run.AggregateBitsSaved}
	})
}

// executeWith runs the plan with a pluggable one-round operator.
func executeWith(p *Plan, db *data.Database, servers int,
	operator func(n *Node, sub *data.Database, perNode, depth int) nodeResult) *ExecResult {
	if servers < 1 {
		panic("multiround: need at least one server")
	}
	levels := make(map[int][]*Node)
	maxDepth := 0
	var collect func(n *Node)
	collect = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		d := n.Depth()
		levels[d] = append(levels[d], n)
		if d > maxDepth {
			maxDepth = d
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(p.Root)

	materialized := make(map[string]*data.Relation, len(db.Relations))
	for name, r := range db.Relations {
		materialized[name] = r
	}

	res := &ExecResult{}
	for _, r := range db.Relations {
		res.InputBits += r.SizeBits(db.N)
	}

	for d := 1; d <= maxDepth; d++ {
		nodes := levels[d]
		if len(nodes) == 0 {
			continue
		}
		perNode := servers / len(nodes)
		if perNode < 1 {
			perNode = 1
		}
		roundLoad := 0.0
		var extraLoads []float64
		for _, n := range nodes {
			sub := data.NewDatabase(db.N)
			for _, a := range n.Query.Atoms {
				r, ok := materialized[a.Name]
				if !ok {
					panic(fmt.Sprintf("multiround: view %q not materialized before round %d", a.Name, d))
				}
				if r.Arity != a.Arity() {
					panic(fmt.Sprintf("multiround: view %q arity %d, atom wants %d", a.Name, r.Arity, a.Arity()))
				}
				if r.Name != a.Name {
					r = r.Clone()
					r.Name = a.Name
				}
				sub.Add(r)
			}
			nr := operator(n, sub, perNode, d)
			nr.out.Name = n.Name
			materialized[n.Name] = nr.out
			if nr.out.NumTuples() > res.MaxViewTuples {
				res.MaxViewTuples = nr.out.NumTuples()
			}
			if nr.loadBits > roundLoad {
				roundLoad = nr.loadBits
			}
			res.TotalBits += nr.totalBits
			res.Aborted = res.Aborted || nr.aborted
			res.ComputeSeconds += nr.computeS
			res.CommSeconds += nr.commS
			res.AggregateBitsSaved += nr.aggSaved
			extraLoads = append(extraLoads, nr.extraLoads...)
		}
		res.RoundLoads = append(res.RoundLoads, roundLoad)
		if roundLoad > res.MaxLoadBits {
			res.MaxLoadBits = roundLoad
		}
		res.Rounds++
		// Extra per-node rounds (the root's aggregate shuffle) extend the
		// plan's round accounting; only the deepest level, which holds the
		// lone root node, ever contributes them.
		for _, l := range extraLoads {
			res.RoundLoads = append(res.RoundLoads, l)
			if l > res.MaxLoadBits {
				res.MaxLoadBits = l
			}
			res.Rounds++
		}
	}
	res.Output = materialized[p.Root.Name]
	return res
}

// ExecuteSkewAware is Execute with every plan node computed by the
// generalized heavy/light pattern algorithm instead of the vanilla
// HyperCube. The paper leaves multi-round skew open (Section 7); this is
// the natural engineering answer: intermediate views can become skewed even
// when the input is not (joins concentrate values), and per-node skew
// handling contains the resulting hotspots. maxHeavyPerVar caps the pattern
// enumeration per node. Per-node skew layouts (heavy-hitter statistics plus
// pattern grids over the intermediate views) are drawn from memo — the
// per-node statistics recomputation is the bulk of the skew-aware
// executor's planning cost.
func ExecuteSkewAware(p *Plan, db *data.Database, servers int, seed int64, maxHeavyPerVar int, memo Memo, env engine.Env) *ExecResult {
	return executeWith(p, db, servers, func(n *Node, sub *data.Database, perNode int, d int) nodeResult {
		gp := memo.do(fmt.Sprintf("node-skew|%s|d%d|pn%d|s%d|h%d", n.Name, d, perNode, seed, maxHeavyPerVar), func() any {
			return skew.PrepareGeneric(n.Query, sub, perNode, maxHeavyPerVar)
		}).(*skew.GenericPlan)
		run := skew.RunGeneric(gp, n.Query, sub, perNode, seed+int64(d), env)
		return nodeResult{out: run.Output, loadBits: run.MaxLoadBits, totalBits: run.TotalBits, aborted: run.Aborted,
			computeS: run.ComputeSeconds, commS: run.CommSeconds}
	})
}
