package experiments

import (
	"math"
	"math/rand"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// SpeedupCurve regenerates the Section 3.4 "Speedup of the HyperCube"
// discussion as a measured figure: for equal-size relations the load decays
// as p^{-1/τ*}, so the log-log slope of measured load against p must fit
// −1/τ* per query family. The slope is a least-squares fit over a p grid.
func SpeedupCurve(cfg Config) *Table {
	t := &Table{
		ID:    "E14",
		Ref:   "Section 3.4 (speedup discussion)",
		Title: "speedup exponents: log-log slope of measured load vs p",
		Columns: []string{"query", "τ*", "predicted slope −1/τ*",
			"fitted slope", "|fit − pred|"},
	}
	m := cfg.scale(6000, 1500)
	grid := []int{8, 16, 32, 64, 128, 256}
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	for _, q := range []*query.Query{query.Triangle(), query.Chain(3), query.Star(2), query.Cycle(4)} {
		db := data.MatchingDatabase(rng, q, m, int64(16*m))
		var xs, ys []float64
		for _, p := range grid {
			res := core.RunPlan(core.PlanForDatabase(q, db, p, core.SkewFree), db, cfg.Seed, nil, engine.Env{})
			xs = append(xs, math.Log(float64(p)))
			ys = append(ys, math.Log(res.MaxLoadBits))
		}
		slope := leastSquaresSlope(xs, ys)
		tau, _ := packing.TauStar(q)
		pred := -1 / tau
		t.Add(q.Name, tau, pred, slope, math.Abs(slope-pred))
	}
	t.Note("m=%d, p ∈ %v; integerized shares quantize the curve (shares only change at powers), so fits land within ≈0.1 of −1/τ*", m, grid)
	return t
}

// leastSquaresSlope fits y = a + b·x and returns b.
func leastSquaresSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
