package skew

import (
	"math"
	"sort"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// The triangle algorithm of Section 4.2.2 computes
// C3 = S1(x1,x2), S2(x2,x3), S3(x3,x1) in one round, splitting the output
// triangles (a1,a2,a3) into three disjoint classes by the frequencies of
// their values (a value is counted in both relations adjacent to its
// variable):
//
//   - light: all three values are cube-light (frequency < m/p^{1/3})
//     → vanilla HyperCube with shares p^{1/3};
//   - case 1: at least two values are p-heavy (frequency ≥ m/p)
//     → per adjacent heavy pair, broadcast the (≤ |H|²) heavy-heavy tuples
//     of the spanning relation and hash-join the other two on the third
//     variable;
//   - case 2: exactly one value is cube-heavy, the others p-light
//     → per heavy value h, a dedicated block computes the residual query
//     R'(y), S(y,z), T'(z) with HyperCube shares from the share LP.
//
// The classes are disjoint by construction, so no output deduplication is
// required (and tests assert none happens).

// triVar describes one variable of the triangle: the two adjacent relations
// and the column the variable occupies in each.
type triVar struct {
	rels [2]int // atom indices
	cols [2]int
}

// TrianglePlan is the reusable, seed-independent part of a triangle run:
// per-variable frequency and heavy-hitter classifications plus the full
// server layout (light grid, case-1 groups, case-2 pivot blocks). It is
// immutable after preparation and safe for concurrent RunTriangle
// calls, so a service can compute it once per database and replay it.
type TrianglePlan struct {
	pHeavy    []map[int64]bool
	cubeHeavy []map[int64]bool
	layout    *triLayout
}

// HeavyHitters returns the number of cube-heavy values across variables.
func (tp *TrianglePlan) HeavyHitters() int {
	n := 0
	for i := range tp.cubeHeavy {
		n += len(tp.cubeHeavy[i])
	}
	return n
}

// ServersUsed returns the total servers the layout spans.
func (tp *TrianglePlan) ServersUsed() int { return tp.layout.totalServers }

// PrepareTriangle computes the frequency statistics and server layout of the
// Section 4.2.2 algorithm — the statistics phase of RunTriangle, split out
// so its result can be cached across queries on the same database.
func PrepareTriangle(q *query.Query, db *data.Database, p int) *TrianglePlan {
	if q.NumAtoms() != 3 || q.NumVars() != 3 {
		panic("skew: RunTriangle requires the triangle query")
	}
	vars := q.Vars()
	tv := make([]triVar, 3)
	for i, v := range vars {
		adj := q.AtomsOf(v)
		if len(adj) != 2 {
			panic("skew: RunTriangle requires the triangle query")
		}
		tv[i] = triVar{
			rels: [2]int{adj[0], adj[1]},
			cols: [2]int{colOf(q.Atoms[adj[0]], v), colOf(q.Atoms[adj[1]], v)},
		}
	}

	rels := make([]*data.Relation, 3)
	for j, a := range q.Atoms {
		rels[j] = db.Get(a.Name)
	}

	// Frequency maps per (variable, adjacent relation).
	freq := make([]map[int64]int, 3) // variable -> value -> max freq over its two relations
	pHeavy := make([]map[int64]bool, 3)
	cubeHeavy := make([]map[int64]bool, 3)
	for i := range vars {
		freq[i] = make(map[int64]int)
		pHeavy[i] = make(map[int64]bool)
		cubeHeavy[i] = make(map[int64]bool)
		for a := 0; a < 2; a++ {
			rel := rels[tv[i].rels[a]]
			m := rel.NumTuples()
			pThr := math.Max(2, float64(m)/float64(p))
			cubeThr := math.Max(2, float64(m)/math.Cbrt(float64(p)))
			for v, c := range data.ColumnFrequencies(rel, tv[i].cols[a]) {
				if c > freq[i][v] {
					freq[i][v] = c
				}
				if float64(c) >= pThr {
					pHeavy[i][v] = true
				}
				if float64(c) >= cubeThr {
					cubeHeavy[i][v] = true
				}
			}
		}
	}

	bpv := data.BitsPerValue(db.N)
	relTuples := make([]int, 3)
	for j := range rels {
		relTuples[j] = rels[j].NumTuples()
	}
	return &TrianglePlan{
		pHeavy:    pHeavy,
		cubeHeavy: cubeHeavy,
		layout:    newTriLayout(q, p, freq, cubeHeavy, bpv, relTuples),
	}
}

// RunTriangle computes C3 over db with a budget of p servers under a
// prepared layout, with every round delivered and metered through env.
// q must be query.Triangle() (atoms S1(x1,x2), S2(x2,x3), S3(x3,x1)); see
// RunStar for the caching contract (a reused plan is bit-identical to a
// fresh one).
func RunTriangle(tp *TrianglePlan, q *query.Query, db *data.Database, p int, seed int64, env engine.Env) *Result {
	vars := q.Vars()
	pHeavy, cubeHeavy, layout := tp.pHeavy, tp.cubeHeavy, tp.layout
	rels := make([]*data.Relation, 3)
	for j, a := range q.Atoms {
		rels[j] = db.Get(a.Name)
	}

	bpv := data.BitsPerValue(db.N)
	cluster := engine.NewClusterEnv(env, layout.totalServers, bpv)
	defer cluster.Release()
	for j := range rels {
		m := rels[j].NumTuples()
		for i := 0; i < m; i++ {
			cluster.Seed(i%p, j, rels[j].Tuple(i))
		}
	}

	family := hashing.NewFamily(seed, 3)
	varsOfAtom := make([][2]int, 3) // atom j -> variable indices of (col0, col1)
	for j, a := range q.Atoms {
		varsOfAtom[j] = [2]int{q.VarIndex(a.Vars[0]), q.VarIndex(a.Vars[1])}
	}
	isPHeavy := func(varIdx int, v int64) bool { return pHeavy[varIdx][v] }
	isCubeLight := func(varIdx int, v int64) bool { return !cubeHeavy[varIdx][v] }

	cluster.Round("skew-triangle", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		inbox.Each(func(j int, tuple []int64) {
			v0, v1 := tuple[0], tuple[1]
			i0, i1 := varsOfAtom[j][0], varsOfAtom[j][1]

			// Light: both values cube-light -> vanilla HC.
			if isCubeLight(i0, v0) && isCubeLight(i1, v1) {
				rt := layout.lightRoutes[j]
				base := layout.lightOffset + rt.Base(family, tuple)
				for _, off := range rt.Offsets {
					emit.EmitTuple(base+off, j, tuple)
				}
			}

			// Case 1 groups.
			for _, g := range layout.case1 {
				g.route(j, tuple, i0, i1, v0, v1, isPHeavy, family, emit)
			}

			// Case 2 pivot blocks.
			for pivot := 0; pivot < 3; pivot++ {
				pb := layout.pivots[pivot]
				if pb == nil {
					continue
				}
				pb.route(q, j, tuple, pivot, i0, i1, v0, v1, isPHeavy, cubeHeavy[pivot], family, emit)
			}
		})
	})

	// Local evaluation with per-group output predicates.
	outputs := evaluatePhase(cluster, q, layout.totalServers, nil,
		func(s int, res *data.Relation) *data.Relation {
			return layout.filter(s, res, pHeavy, cubeHeavy)
		})
	out := data.Concat(q.Name, 3, outputs)

	inputBits := 0.0
	for j := range rels {
		inputBits += rels[j].SizeBits(db.N)
	}
	nHeavy := 0
	for i := range vars {
		nHeavy += len(cubeHeavy[i])
	}
	computeS, commS := cluster.PhaseSeconds()
	return &Result{
		Output:          out,
		ServersUsed:     layout.totalServers,
		Rounds:          cluster.NumRounds(),
		MaxLoadBits:     cluster.MaxLoadBits(),
		TotalBits:       cluster.TotalBits(),
		InputBits:       inputBits,
		ReplicationRate: cluster.ReplicationRate(inputBits),
		HeavyHitters:    nHeavy,
		Aborted:         cluster.Aborted(),
		ComputeSeconds:  computeS,
		CommSeconds:     commS,
	}
}

// ---- server layout -------------------------------------------------------

type triLayout struct {
	totalServers int
	lightOffset  int
	light        *hashing.Grid
	lightRoutes  [3]*hashing.Route // per atom, on the atom's two variables
	case1        []*case1Group
	pivots       [3]*pivotBlocks
}

// case1Group handles triangles whose heavy pair is (hv0, hv1) — adjacent
// variables spanned by relation span — by broadcasting span's heavy-heavy
// tuples and hash-joining the other two relations on joinVar.
type case1Group struct {
	offset, size int
	span         int // atom index broadcast (both vars p-heavy)
	hv0, hv1     int // variable indices of the heavy pair
	joinVar      int // the third variable: both other relations hashed on it
	excludeVar   int // predicate: this variable must NOT be p-heavy (-1 if none)
}

func (g *case1Group) route(j int, tuple []int64, i0, i1 int, v0, v1 int64,
	isPHeavy func(int, int64) bool, family *hashing.Family, emit *engine.Emitter) {
	if j == g.span {
		if isPHeavy(i0, v0) && isPHeavy(i1, v1) {
			for d := 0; d < g.size; d++ {
				emit.EmitTuple(g.offset+d, j, tuple)
			}
		}
		return
	}
	// The other two relations each contain joinVar in one column and one of
	// the heavy variables in the other; route when the heavy-side value is
	// p-heavy, hashed on joinVar.
	var joinVal, heavyVal int64
	var heavyVar int
	switch {
	case i0 == g.joinVar:
		joinVal, heavyVal, heavyVar = v0, v1, i1
	case i1 == g.joinVar:
		joinVal, heavyVal, heavyVar = v1, v0, i0
	default:
		return
	}
	if isPHeavy(heavyVar, heavyVal) {
		emit.EmitTuple(g.offset+family.Bin(g.joinVar, joinVal, g.size), j, tuple)
	}
}

// pivotBlocks holds the case-2 blocks for one pivot variable: one HyperCube
// block per cube-heavy value of the pivot.
type pivotBlocks struct {
	pivot  int
	blocks map[int64]*pivotBlock
}

type pivotBlock struct {
	offset int
	grid   *hashing.Grid     // 2-dimensional: (first non-pivot var, second non-pivot var)
	dims   [2]int            // variable indices of grid dimensions 0 and 1
	routes [2]*hashing.Route // per grid dimension fixed by a pivot-adjacent tuple
}

func (pb *pivotBlocks) route(q *query.Query, j int, tuple []int64, pivot, i0, i1 int,
	v0, v1 int64, isPHeavy func(int, int64) bool, pivotHeavy map[int64]bool,
	family *hashing.Family, emit *engine.Emitter) {
	switch {
	case i0 == pivot || i1 == pivot:
		// Relation adjacent to the pivot: route into the block of its pivot
		// value when the other value is p-light.
		pv, ov, ovar := v0, v1, i1
		if i1 == pivot {
			pv, ov, ovar = v1, v0, i0
		}
		if !pivotHeavy[pv] || isPHeavy(ovar, ov) {
			return
		}
		b := pb.blocks[pv]
		dim := 0
		if b.dims[1] == ovar {
			dim = 1
		}
		rt := b.routes[dim]
		base := b.offset + rt.BaseOfBins([]int{family.Bin(ovar, ov, b.grid.Shares[dim])})
		for _, off := range rt.Offsets {
			emit.EmitTuple(base+off, j, tuple)
		}
	default:
		// The opposite relation (no pivot variable): both values must be
		// p-light; replicate to every pivot block at the fixed grid point.
		if isPHeavy(i0, v0) || isPHeavy(i1, v1) {
			return
		}
		// Sorted by pivot value, not map order: replication order feeds
		// inbox order, which must match across runs and SPMD ranks.
		for _, pv := range data.SortedKeys(pb.blocks) {
			b := pb.blocks[pv]
			d0, d1 := 0, 1
			if b.dims[0] == i1 {
				d0, d1 = 1, 0
			}
			bins := make([]int, 2)
			bins[d0] = family.Bin(i0, v0, b.grid.Shares[d0])
			bins[d1] = family.Bin(i1, v1, b.grid.Shares[d1])
			emit.EmitTuple(b.offset+b.grid.ServerOf(bins), j, tuple)
		}
	}
}

// newTriLayout allocates the server ranges for all groups.
func newTriLayout(q *query.Query, p int, freq []map[int64]int, cubeHeavy []map[int64]bool, bpv int, relTuples []int) *triLayout {
	lay := &triLayout{}
	offset := p // servers [0,p) hold the seeded input; light grid starts fresh

	// Light grid: shares p^{1/3} per variable.
	e := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	lay.light = hashing.NewGrid(integerShares3(e, p))
	for j, a := range q.Atoms {
		lay.lightRoutes[j] = lay.light.Compile([]int{q.VarIndex(a.Vars[0]), q.VarIndex(a.Vars[1])})
	}
	lay.lightOffset = offset
	offset += lay.light.P()

	// Case-1 groups in priority order: (x1,x2) via S1; (x2,x3) via S2 with
	// x1 excluded; (x3,x1) via S3 with x2 excluded. Variable/atom indices
	// follow query.Triangle(): S1(x1,x2), S2(x2,x3), S3(x3,x1).
	mk := func(span, hv0, hv1, joinVar, exclude int) *case1Group {
		g := &case1Group{offset: offset, size: p, span: span, hv0: hv0, hv1: hv1,
			joinVar: joinVar, excludeVar: exclude}
		offset += p
		return g
	}
	lay.case1 = []*case1Group{
		mk(0, 0, 1, 2, -1),
		mk(1, 1, 2, 0, 0),
		mk(2, 2, 0, 1, 1),
	}

	// Case-2 pivot blocks.
	for pivot := 0; pivot < 3; pivot++ {
		hs := cubeHeavy[pivot]
		if len(hs) == 0 {
			continue
		}
		values := make([]int64, 0, len(hs))
		for v := range hs {
			values = append(values, v)
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })

		// Allocation: p/(2|H|) uniformly plus p·w(h)/(2Σw) with
		// w(h) = M_R(h)·M_T(h) (the two pivot-adjacent fiber sizes).
		wsum := 0.0
		w := make(map[int64]float64, len(values))
		for _, h := range values {
			wh := float64(freq[pivot][h]) * float64(freq[pivot][h])
			w[h] = wh
			wsum += wh
		}
		// Non-pivot variables in q.Vars() order.
		var nonPivot [2]int
		np := 0
		for i := 0; i < 3; i++ {
			if i != pivot {
				nonPivot[np] = i
				np++
			}
		}
		pb := &pivotBlocks{pivot: pivot, blocks: make(map[int64]*pivotBlock, len(values))}
		// Residual query for the share LP: R'(a), S(a,b), T'(b).
		resQ := query.New("residual",
			query.Atom{Name: "Rp", Vars: []string{"a"}},
			query.Atom{Name: "Sm", Vars: []string{"a", "b"}},
			query.Atom{Name: "Tp", Vars: []string{"b"}},
		)
		// Middle relation: the atom not containing the pivot.
		midAtom := oppositeAtom(q, pivot)
		midBits := float64(2*bpv) * float64(relTuples[midAtom])
		for _, h := range values {
			ph := p/(2*len(values)) + 1
			if wsum > 0 {
				ph += int(float64(p) * w[h] / (2 * wsum))
			}
			fiber := float64(freq[pivot][h]) * float64(bpv)
			if fiber < 1 {
				fiber = 1
			}
			sh := packing.ShareExponents(resQ, []float64{fiber, midBits, fiber}, math.Max(2, float64(ph)))
			ab := integerShares2(sh.Exponents, ph) // exponents for (a, b)
			grid := hashing.NewGrid(ab)
			pb.blocks[h] = &pivotBlock{offset: offset, grid: grid, dims: nonPivot,
				routes: [2]*hashing.Route{grid.Compile([]int{0}), grid.Compile([]int{1})}}
			offset += grid.P()
		}
		lay.pivots[pivot] = pb
	}
	lay.totalServers = offset
	return lay
}

func oppositeAtom(q *query.Query, pivot int) int {
	pv := q.Vars()[pivot]
	for j, a := range q.Atoms {
		if !a.HasVar(pv) {
			return j
		}
	}
	panic("skew: no opposite atom")
}

func integerShares3(e []float64, p int) []int {
	return integerSharesN(e, p)
}

func integerShares2(e []float64, p int) []int {
	// The residual share LP has 2 variables (a, b).
	return integerSharesN(e[:2], p)
}

// integerSharesN mirrors core.IntegerShares (duplicated to avoid an import
// cycle with package core, which depends on skew-free planning only).
func integerSharesN(e []float64, p int) []int {
	k := len(e)
	target := make([]float64, k)
	for i, ei := range e {
		target[i] = math.Pow(float64(p), ei)
	}
	shares := make([]int, k)
	for i := range shares {
		shares[i] = 1
	}
	prod := 1
	blocked := make([]bool, k)
	for {
		best := -1
		bestGap := 1.0
		for i := 0; i < k; i++ {
			if blocked[i] {
				continue
			}
			gap := float64(shares[i]) / target[i]
			if gap < bestGap-1e-12 {
				bestGap = gap
				best = i
			}
		}
		if best < 0 {
			return shares
		}
		if prod/shares[best]*(shares[best]+1) > p {
			blocked[best] = true
			continue
		}
		prod = prod / shares[best] * (shares[best] + 1)
		shares[best]++
	}
}

// filter applies the per-group output predicate for the server s.
func (lay *triLayout) filter(s int, res *data.Relation, pHeavy, cubeHeavy []map[int64]bool) *data.Relation {
	if s < lay.lightOffset {
		// Input-holding servers produce nothing (they only routed).
		return data.NewRelation(res.Name, res.Arity)
	}
	if s < lay.lightOffset+lay.light.P() {
		// Light group: routing already guarantees all three values are
		// cube-light, but a triangle may still contain a p-heavy (yet
		// cube-light) PAIR — the cube threshold m/p^{1/3} sits above the
		// case-1 threshold m/p — and such triangles belong to their case-1
		// group, which also computes them. Keep only triangles with at most
		// one p-heavy value so the classes stay disjoint (found by the
		// differential-oracle suite on multi-heavy inputs).
		out := data.NewRelation(res.Name, res.Arity)
		for i := 0; i < res.NumTuples(); i++ {
			t := res.Tuple(i)
			heavy := 0
			for v := 0; v < 3; v++ {
				if pHeavy[v][t[v]] {
					heavy++
				}
			}
			if heavy < 2 {
				out.AppendTuple(t)
			}
		}
		return out
	}
	for _, g := range lay.case1 {
		if s >= g.offset && s < g.offset+g.size {
			if g.excludeVar < 0 {
				return res
			}
			out := data.NewRelation(res.Name, res.Arity)
			for i := 0; i < res.NumTuples(); i++ {
				t := res.Tuple(i)
				if !pHeavy[g.excludeVar][t[g.excludeVar]] {
					out.AppendTuple(t)
				}
			}
			return out
		}
	}
	// Case-2 blocks need no filter: routing enforces the pivot predicate.
	return res
}
