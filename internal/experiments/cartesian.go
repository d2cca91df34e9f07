package experiments

import (
	"math"
	"math/rand"
	"strconv"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

// CartesianProduct regenerates the Section 6 discussion (Ullman's drug
// interaction example): computing R(x) × S(y) with p known, the optimal
// strategy partitions each set into √p groups and assigns one pair of
// groups per server — load 2n/√p — rather than the replication-heavy or
// single-reducer extremes of the MapReduce formulation. The HyperCube share
// LP discovers the √p×√p grid on its own.
func CartesianProduct(cfg Config) *Table {
	t := &Table{
		ID:    "E16",
		Ref:   "Section 6 (Cartesian product / drug interactions)",
		Title: "Cartesian product: the share LP finds the √p×√p grid",
		Columns: []string{"p", "shares", "measured L (bits)", "predicted 2M/√p",
			"measured/predicted", "replication"},
	}
	q := query.New("product",
		query.Atom{Name: "R", Vars: []string{"x"}},
		query.Atom{Name: "S", Vars: []string{"y"}},
	)
	m := cfg.scale(4000, 1000)
	n := int64(16 * m)
	rng := rand.New(rand.NewSource(cfg.Seed + 14))
	db := data.NewDatabase(n)
	db.Add(data.RandomMatching(rng, "R", 1, m, n))
	db.Add(data.RandomMatching(rng, "S", 1, m, n))
	M := db.Get("R").SizeBits(n)
	for _, p := range []int{4, 16, 64, 256} {
		pl := core.PlanForDatabase(q, db, p, core.SkewFree)
		res := core.RunPlan(pl, db, cfg.Seed, nil, engine.Env{})
		pred := 2 * M / math.Sqrt(float64(p))
		t.Add(p, shareString(pl.Shares), res.MaxLoadBits, pred,
			res.MaxLoadBits/pred, res.ReplicationRate)
	}
	t.Note("two unary sets of m=%d values; every output pair is produced at exactly one server; replication grows as √p, the unavoidable price of the product", m)
	return t
}

func shareString(sh []int) string {
	s := "("
	for i, v := range sh {
		if i > 0 {
			s += ","
		}
		s += strconv.Itoa(v)
	}
	return s + ")"
}
