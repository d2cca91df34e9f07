package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"mpcquery/internal/bounds"
	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/multiround"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// Table3RoundsTradeoff regenerates Table 3: the one-round space exponent,
// the rounds needed to reach load O(M/p), and the rounds/space tradeoff for
// C_k, L_k, T_k and SP_k. Plan depths are produced by the actual planner.
func Table3RoundsTradeoff(cfg Config) *Table {
	t := &Table{
		ID:    "E2",
		Ref:   "Table 3",
		Title: "space exponent for 1 round vs rounds for load O(M/p)",
		Columns: []string{"query", "ε for 1 round", "rounds at ε=0 (formula)",
			"rounds at ε=0 (planner)", "tradeoff r(ε)"},
	}
	rows := []struct {
		q        *query.Query
		tradeoff string
	}{
		{query.Cycle(4), "~ log k / log(2/(1-ε))"},
		{query.Cycle(8), "~ log k / log(2/(1-ε))"},
		{query.Chain(4), "~ log k / log(2/(1-ε))"},
		{query.Chain(8), "~ log k / log(2/(1-ε))"},
		{query.Chain(16), "~ log k / log(2/(1-ε))"},
		{query.Star(4), "NA (1 round)"},
		{query.SpokedWheel(3), "NA (2 rounds)"},
	}
	for _, r := range rows {
		eps1 := bounds.SpaceExponentLB(r.q)
		var formula int
		if bounds.InGammaOne(r.q, 0) {
			formula = 1
		} else {
			formula = bounds.RoundsUB(r.q, 0)
		}
		plan := multiround.GreedyPlan(r.q, 0)
		t.Add(r.q.Name, eps1, formula, plan.Rounds(), r.tradeoff)
	}
	t.Note("formula column is the Lemma 5.4 upper bound r(q); the planner meets or beats it on every family (chains/SP_k have exact plans)")
	return t
}

// ChainMultiRound regenerates Examples 5.2/5.3 and Corollary 5.15: for L_k
// the executable plan's depth equals both the ⌈log_kε k⌉ formula and the
// (ε,r)-plan lower bound, and every round's measured load stays near
// M/p^{1−ε}.
func ChainMultiRound(cfg Config) *Table {
	t := &Table{
		ID:    "E8",
		Ref:   "Examples 5.2/5.3, Corollary 5.15",
		Title: "multi-round chains: rounds and per-round load",
		Columns: []string{"query", "ε", "rounds UB (plan)", "rounds LB ((ε,r)-plan)",
			"executed", "measured L (bits)", "target M/p^{1−ε}", "L/target"},
	}
	p := 64
	m := cfg.scale(2000, 400)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	for _, tt := range []struct {
		k   int
		eps float64
	}{
		{8, 0}, {16, 0}, {16, 0.5}, {4, 0},
	} {
		db := data.ChainMatchingDatabase(rng, tt.k, m, int64(16*m))
		plan := multiround.ChainPlan(tt.k, tt.eps)
		lb := multiround.ChainEpsPlan(tt.k, tt.eps).RoundsLB()
		res := multiround.Execute(plan, db, p, cfg.Seed, nil, nil, engine.Env{})
		M := db.Get("S1").SizeBits(db.N)
		target := M / math.Pow(float64(p), 1-tt.eps)
		t.Add(fmt.Sprintf("L%d", tt.k), tt.eps, plan.Rounds(), lb,
			res.Rounds, res.MaxLoadBits, target, res.MaxLoadBits/target)
	}
	// SP_3: τ* = 3 but a 2-round plan reaches load M/p (Example 5.3).
	spq := query.SpokedWheel(3)
	spdb := data.MatchingDatabase(rng, spq, m, int64(16*m))
	spPlan := multiround.GreedyPlan(spq, 0)
	spRes := multiround.Execute(spPlan, spdb, p, cfg.Seed, nil, nil, engine.Env{})
	M := spdb.Get("R1").SizeBits(spdb.N)
	t.Add("SP3", 0.0, spPlan.Rounds(), 2, spRes.Rounds, spRes.MaxLoadBits,
		M/float64(p), spRes.MaxLoadBits/(M/float64(p)))
	t.Note("p=%d, m=%d; UB = LB on every chain row (tightness of Corollary 5.15)", p, m)
	return t
}

// CycleRounds regenerates Example 5.19: C6 is tight at 3 rounds (ε=0) while
// C5 has LB 2 vs UB 3 — the paper leaves its exact round complexity open.
func CycleRounds(cfg Config) *Table {
	t := &Table{
		ID:    "E9",
		Ref:   "Example 5.19 / Lemma 5.18",
		Title: "cycle queries: round bounds at ε=0",
		Columns: []string{"query", "rounds LB", "rounds UB (Lemma 5.4)",
			"planner rounds", "executed", "output ok"},
	}
	p := 64
	m := cfg.scale(1500, 300)
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	for _, k := range []int{5, 6, 8} {
		q := query.Cycle(k)
		db := data.MatchingDatabase(rng, q, m, int64(16*m))
		lb := multiround.CycleEpsPlan(k, 0).RoundsLB()
		ub := bounds.RoundsUB(q, 0)
		plan := multiround.CyclePlan(k, 0)
		res := multiround.Execute(plan, db, p, cfg.Seed, nil, nil, engine.Env{})
		ok := data.Equal(res.Output, core.SequentialAnswer(q, db))
		t.Add(fmt.Sprintf("C%d", k), lb, ub, plan.Rounds(), res.Rounds, ok)
	}
	t.Note("C6: LB = UB = 3; C5: LB 2 < UB 3 (open in the paper)")
	return t
}

// ConnectedComponents regenerates the Theorem 5.20 context: on layered path
// graphs whose diameter grows with p, label propagation needs Θ(diameter)
// rounds while pointer jumping needs O(log diameter); both loads stay near
// m/p. The theorem says no tuple-based algorithm beats Ω(log p) rounds at
// load O(m/p^{1−ε}).
func ConnectedComponents(cfg Config) *Table {
	t := &Table{
		ID:    "E10",
		Ref:   "Theorem 5.20",
		Title: "connected components: rounds vs p on diameter-p paths",
		Columns: []string{"p", "diameter", "label-prop rounds", "pointer-jump rounds",
			"Ω(log p) shape", "PJ max load (bits)", "edges·bits/p"},
	}
	perLayer := cfg.scale(40, 15)
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	for _, p := range []int{4, 16, 64} {
		diam := p // diameter growing linearly in p makes the separation visible
		g := data.LayeredPathGraph(rng, diam, perLayer)
		lp := multiround.LabelPropagation(g, p, cfg.Seed, 0)
		pj := multiround.PointerJumping(g, p, cfg.Seed, 0)
		bits := float64(2 * data.BitsPerValue(g.NumVertices))
		t.Add(p, diam, lp.IterRounds, pj.IterRounds,
			int(math.Ceil(math.Log2(float64(p)))), pj.MaxLoadBits,
			float64(g.NumEdges())*bits/float64(p))
	}
	t.Note("label propagation tracks the diameter (linear in p here); pointer jumping stays logarithmic — consistent with the Ω(log p) lower bound being essentially achievable")
	return t
}

// packingTable is a helper exposing the five packing vertices of C3 for the
// quickstart example and the planner CLI.
func packingTable(q *query.Query, M []float64, p float64) [][]string {
	var rows [][]string
	for _, u := range packing.Vertices(q) {
		rows = append(rows, []string{packString(u),
			formatFloat(packing.Load(u, M, p))})
	}
	return rows
}
