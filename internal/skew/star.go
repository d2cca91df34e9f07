// Package skew implements the skew-aware one-round algorithms of
// Section 4.2, which assume the servers know the heavy hitters and their
// (approximate) frequencies:
//
//   - the star-query algorithm of Section 4.2.1 (which covers the simple
//     join as the k=2 case): light tuples run vanilla HyperCube hashed on
//     z, while each heavy hitter h gets a dedicated server group computing
//     the residual Cartesian product with servers allocated proportionally
//     to Π_j M_j(h)^{u_j} over the packings u ∈ {0,1}^ℓ;
//   - the triangle algorithm of Section 4.2.2 with its three cases (see
//     triangle.go).
//
// Following the paper, the algorithms may use Θ(p) servers — a constant
// factor more than p (the paper's own accounting allows (ℓ+1)·|pk(q_z)|·p).
// Loads are compared against bounds parameterized by the requested p.
package skew

import (
	"sort"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/query"
)

// Result reports an executed skew-aware run.
type Result struct {
	Output *data.Relation

	ServersUsed     int
	Rounds          int
	MaxLoadBits     float64
	TotalBits       float64
	InputBits       float64
	ReplicationRate float64
	HeavyHitters    int
	Aborted         bool // the declared load cap (engine.Env.LoadCapBits) was exceeded

	// Wall-clock split of the simulation (not model costs): seconds spent
	// in local computation vs simulated communication delivery.
	ComputeSeconds float64
	CommSeconds    float64
}

// StarPlan is the reusable, seed-independent part of a star-query run: the
// heavy-hitter set and the per-heavy-hitter server blocks with their
// residual-share grids, derived from frequency statistics. A StarPlan is
// immutable after preparation and safe for concurrent RunStar calls,
// so a service can prepare it once per (query shape, database) and replay it
// for every arriving query.
type StarPlan struct {
	zCols        []int
	heavy        []int64
	blocks       map[int64]*block
	totalServers int
}

// HeavyHitters returns the number of z-values handled by dedicated blocks.
func (sp *StarPlan) HeavyHitters() int { return len(sp.heavy) }

// ServersUsed returns the total servers the layout spans (light + blocks).
func (sp *StarPlan) ServersUsed() int { return sp.totalServers }

// PrepareStar computes the star layout from exact column frequencies — the
// statistics phase of RunStar, split out so its result can be cached.
func PrepareStar(q *query.Query, db *data.Database, p int) *StarPlan {
	zName := q.Atoms[0].Vars[0]
	freqs := make([]map[int64]int, q.NumAtoms())
	for j, a := range q.Atoms {
		freqs[j] = data.ColumnFrequencies(db.Get(a.Name), colOf(a, zName))
	}
	return PrepareStarWithFrequencies(q, db, p, freqs)
}

// PrepareStarWithFrequencies computes the star layout from explicit
// (exact or estimated) z-frequency statistics. Statistics only drive
// heavy-hitter selection and server allocation; correctness never depends
// on their accuracy, so sampled estimates are safe — bad estimates only
// cost load.
func PrepareStarWithFrequencies(q *query.Query, db *data.Database, p int, freqs []map[int64]int) *StarPlan {
	k := q.NumAtoms()
	zName := q.Atoms[0].Vars[0]

	zCols := make([]int, k)
	heavySet := make(map[int64]bool)
	for j, a := range q.Atoms {
		zCols[j] = colOf(a, zName)
		rel := db.Get(a.Name)
		thr := rel.NumTuples() / p
		if thr < 1 {
			thr = 1
		}
		for v, c := range freqs[j] {
			if c >= thr && c > 1 {
				heavySet[v] = true
			}
		}
	}
	heavy := make([]int64, 0, len(heavySet))
	for v := range heavySet {
		heavy = append(heavy, v)
	}
	sort.Slice(heavy, func(i, j int) bool { return heavy[i] < heavy[j] })

	// Per-heavy-hitter server allocation.
	bpv := data.BitsPerValue(db.N)
	weight := func(h int64) float64 {
		// Σ over nonempty I ⊆ [ℓ] of Π_{j∈I} M_j(h).
		total := 0.0
		for mask := 1; mask < 1<<uint(k); mask++ {
			prod := 1.0
			for j := 0; j < k; j++ {
				if mask&(1<<uint(j)) != 0 {
					prod *= float64(freqs[j][h]) * float64(2*bpv)
				}
			}
			total += prod
		}
		return total
	}
	totalW := 0.0
	for _, h := range heavy {
		totalW += weight(h)
	}
	blocks := make(map[int64]*block, len(heavy))
	offset := p // heavy blocks start after the light servers
	for _, h := range heavy {
		ph := 1
		if totalW > 0 {
			ph = int(float64(p) * weight(h) / totalW)
			if ph < 1 {
				ph = 1
			}
		}
		// Residual query: Cartesian product of the ℓ unary fibers; shares
		// are proportional to the fiber sizes via the share LP.
		stats := make([]float64, k)
		for j := 0; j < k; j++ {
			s := float64(freqs[j][h]) * float64(bpv)
			if s < 1 {
				s = 1
			}
			stats[j] = s
		}
		shares := residualShares(stats, ph)
		grid := hashing.NewGrid(shares)
		routes := make([]*hashing.Route, k)
		for j := range routes {
			routes[j] = grid.Compile([]int{j})
		}
		blocks[h] = &block{offset: offset, grid: grid, routes: routes}
		offset += grid.P()
	}
	return &StarPlan{zCols: zCols, heavy: heavy, blocks: blocks, totalServers: offset}
}

// RunStar computes the star query T_k (atoms S_j(z, x_j)) on db with a
// budget of p servers under a prepared layout (PrepareStar treats as heavy
// every z-value with frequency ≥ m_j/p in some relation, the paper's
// threshold; PrepareStarWithFrequencies takes sampled estimates), with
// every round delivered and metered through env.
//
// Server layout: servers [0, p) hash light tuples on z; each heavy hitter h
// gets a dedicated block of p_h servers after that, with Σ_h p_h ≈ p
// allocated proportionally to Σ_{∅≠I⊆[ℓ]} Π_{j∈I} M_j(h) (the paper's
// per-packing allocation, summed over the packing vertices {0,1}^ℓ\0).
//
// This is the data round alone: routing, local evaluation and metering,
// with the statistics phase already paid for (or cached) by the caller.
// Preparation only moves work, never accounting, so a plan reused across
// runs is bit-identical to a fresh one.
func RunStar(sp *StarPlan, q *query.Query, db *data.Database, p int, seed int64, env engine.Env) *Result {
	k := q.NumAtoms()
	zCols, blocks, totalServers := sp.zCols, sp.blocks, sp.totalServers
	bpv := data.BitsPerValue(db.N)

	cluster := engine.NewClusterEnv(env, totalServers, bpv)
	defer cluster.Release()
	for j, a := range q.Atoms {
		rel := db.Get(a.Name)
		m := rel.NumTuples()
		for i := 0; i < m; i++ {
			cluster.Seed(i%p, j, rel.Tuple(i))
		}
	}

	family := hashing.NewFamily(seed, k+1) // dim k hashes z for the light part

	cluster.Round("skew-star", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		inbox.Each(func(j int, tuple []int64) {
			z := tuple[zCols[j]]
			if b, isHeavy := blocks[z]; isHeavy {
				// Heavy: route within h's block, fixing dimension j to the
				// hash of the x_j value; all other dimensions free.
				xc := 1 - zCols[j] // binary atoms: the non-z column
				rt := b.routes[j]
				base := b.offset + rt.Base(family, tuple[xc:xc+1])
				for _, off := range rt.Offsets {
					emit.EmitTuple(base+off, j, tuple)
				}
			} else {
				// Light: hash-partition on z across the light servers.
				emit.EmitTuple(family.Bin(k, z, p), j, tuple)
			}
		})
	})

	// Local evaluation everywhere (both light servers and heavy blocks
	// evaluate the same star query over their fragments), with per-worker
	// kernel scratch and a round-scoped shared index cache.
	outputs := evaluatePhase(cluster, q, totalServers, nil, nil)
	out := data.Concat(q.Name, q.NumVars(), outputs)

	inputBits := 0.0
	for _, a := range q.Atoms {
		inputBits += db.Get(a.Name).SizeBits(db.N)
	}
	computeS, commS := cluster.PhaseSeconds()
	return &Result{
		Output:          out,
		ServersUsed:     totalServers,
		Rounds:          cluster.NumRounds(),
		MaxLoadBits:     cluster.MaxLoadBits(),
		TotalBits:       cluster.TotalBits(),
		InputBits:       inputBits,
		ReplicationRate: cluster.ReplicationRate(inputBits),
		HeavyHitters:    len(sp.heavy),
		Aborted:         cluster.Aborted(),
		ComputeSeconds:  computeS,
		CommSeconds:     commS,
	}
}

// evaluatePhase is the shared computation phase of the skew algorithms: for
// every server with a non-empty inbox (and not excluded by skip — the
// generalized algorithm's input-only servers) it rebuilds the atom fragments
// into per-worker scratch relations (bulk batch appends, kinds are atom
// indices), evaluates q with the columnar kernel, and applies filter (when
// non-nil) to the server's raw result. One index cache spans the phase so
// servers holding identical routed fragments (broadcast heavy-heavy groups,
// replicated grid slices) share index builds.
func evaluatePhase(cluster *engine.Cluster, q *query.Query, servers int,
	skip func(s int) bool,
	filter func(s int, res *data.Relation) *data.Relation) []*data.Relation {
	outputs := make([]*data.Relation, servers)
	cache := localjoin.NewIndexCache()
	scratches := localjoin.NewWorkerScratches()
	cluster.Compute(func(s, w int) {
		if (skip != nil && skip(s)) || cluster.Inbox(s).NumTuples() == 0 {
			outputs[s] = data.NewRelation(q.Name, q.NumVars())
			return
		}
		sc := scratches.Worker(w)
		frag := sc.Fragments(q)
		cluster.Inbox(s).EachBatch(func(b engine.Batch) {
			frag[b.Kind].AppendVals(b.Vals)
		})
		res := sc.EvaluateAtoms(q, frag, cache)
		if filter != nil {
			res = filter(s, res)
		}
		outputs[s] = res
	})
	scratches.Release()
	cache.Publish(cluster.Trace())
	return outputs
}

type block struct {
	offset int
	grid   *hashing.Grid
	routes []*hashing.Route // per atom j: dimension j fixed by the x_j hash
}

// residualShares computes integer shares for the residual Cartesian product
// with the given per-fiber sizes: share_j ∝ M_j(h), normalized to Π ≤ ph.
// This matches the optimal HC shares for a product of unary relations.
func residualShares(stats []float64, ph int) []int {
	k := len(stats)
	if ph < 1 {
		ph = 1
	}
	// Exponents e_j ∝ log M_j(h) subject to Σ e_j = 1 is NOT the optimum for
	// products; the share LP gives share_j ∝ M_j(h) / L where L is the
	// common per-fiber load. Solve directly: find L such that
	// Π_j max(1, M_j/L) = ph by bisection on L.
	lo, hi := 1e-9, 0.0
	for _, s := range stats {
		if s > hi {
			hi = s
		}
	}
	if hi <= lo {
		hi = 1
	}
	prodAt := func(l float64) float64 {
		prod := 1.0
		for _, s := range stats {
			f := s / l
			if f < 1 {
				f = 1
			}
			prod *= f
		}
		return prod
	}
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if prodAt(mid) > float64(ph) {
			lo = mid
		} else {
			hi = mid
		}
	}
	l := hi
	shares := make([]int, k)
	prod := 1
	for j, s := range stats {
		sh := int(s / l)
		if sh < 1 {
			sh = 1
		}
		shares[j] = sh
		prod *= sh
	}
	// Trim if integer rounding overshot the budget.
	for prod > ph {
		big := 0
		for j := 1; j < k; j++ {
			if shares[j] > shares[big] {
				big = j
			}
		}
		if shares[big] == 1 {
			break
		}
		prod = prod / shares[big] * (shares[big] - 1)
		shares[big]--
	}
	return shares
}

func colOf(a query.Atom, v string) int {
	for c, w := range a.Vars {
		if w == v {
			return c
		}
	}
	panic("skew: variable " + v + " not in atom " + a.Name)
}
