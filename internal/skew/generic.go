package skew

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// GenericPlan is the reusable, seed-independent part of a generalized
// heavy/light-pattern run: the per-variable heavy sets and the full pattern
// enumeration with grids and server offsets. Preparing it is the expensive
// phase of the algorithm — Π_v(1+|H_v|) patterns, each with its own share-LP
// solve — so a service caches it per (query shape, database, p, heavy cap)
// and replays it. The plan is immutable after preparation and safe for
// concurrent RunGeneric calls.
type GenericPlan struct {
	heavy        []map[int64]bool
	patterns     []*genPattern
	inputServers int
	totalServers int
	nHeavy       int

	// Routing index: atomDims[j] lists the grid dimension of each column of
	// atom j, and routes[j] maps a tuple's heavy/light signature on those
	// dimensions to exactly the patterns it matches. A tuple matches a
	// pattern iff the pattern pins precisely the tuple's heavy values and
	// leaves its light dimensions unpinned, so the signature determines the
	// match set — routing costs O(matches) instead of O(all patterns).
	atomDims [][]int
	routes   []map[string][]*genPattern
}

// appendSignature appends the heavy/light signature of vals over dims:
// per column, either a light marker or the pinned/heavy value. get reports
// the pinned value (pattern side) or the tuple value with its heavy flag
// (tuple side).
func appendSignature(buf []byte, dims []int, val func(c, d int) (int64, bool)) []byte {
	for c, d := range dims {
		v, heavy := val(c, d)
		if !heavy {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return buf
}

// HeavyHitters returns the total number of heavy values across variables.
func (gp *GenericPlan) HeavyHitters() int { return gp.nHeavy }

// ServersUsed returns the total servers the layout spans.
func (gp *GenericPlan) ServersUsed() int { return gp.totalServers }

// NumPatterns returns the number of heavy/light output patterns.
func (gp *GenericPlan) NumPatterns() int { return len(gp.patterns) }

// PrepareGeneric computes heavy sets and the pattern layout — the statistics
// and planning phase of RunGeneric, split out so its result can be cached.
func PrepareGeneric(q *query.Query, db *data.Database, p int, maxHeavyPerVar int) *GenericPlan {
	if !q.IsConnected() {
		panic("skew: RunGeneric requires a connected query")
	}
	k := q.NumVars()
	vars := q.Vars()

	// Heavy sets per variable.
	heavy := make([]map[int64]bool, k)
	freqBits := make([]map[int64]float64, k) // per variable: value -> max fragment bits
	bpv := data.BitsPerValue(db.N)
	for i, v := range vars {
		heavy[i] = make(map[int64]bool)
		freqBits[i] = make(map[int64]float64)
		for _, j := range q.AtomsOf(v) {
			atom := q.Atoms[j]
			rel := db.Get(atom.Name)
			thr := math.Max(2, float64(rel.NumTuples())/float64(p))
			for c, av := range atom.Vars {
				if av != v {
					continue
				}
				for val, cnt := range data.ColumnFrequencies(rel, c) {
					b := float64(cnt) * float64(atom.Arity()*bpv)
					if b > freqBits[i][val] {
						freqBits[i][val] = b
					}
					if float64(cnt) >= thr {
						heavy[i][val] = true
					}
				}
			}
		}
		if len(heavy[i]) > maxHeavyPerVar {
			// Keep the heaviest maxHeavyPerVar values; the rest are treated
			// as light (correct, just with weaker load guarantees).
			type vb struct {
				val  int64
				bits float64
			}
			all := make([]vb, 0, len(heavy[i]))
			for val := range heavy[i] {
				all = append(all, vb{val, freqBits[i][val]})
			}
			sort.Slice(all, func(a, b int) bool {
				if all[a].bits != all[b].bits {
					return all[a].bits > all[b].bits
				}
				return all[a].val < all[b].val
			})
			heavy[i] = make(map[int64]bool, maxHeavyPerVar)
			for _, e := range all[:maxHeavyPerVar] {
				heavy[i][e.val] = true
			}
		}
	}

	patterns := enumeratePatterns(q, db, p, heavy, freqBits)

	total := 0
	for _, pat := range patterns {
		pat.offset = total
		total += pat.grid.P()
	}
	inputServers := p
	for i := range patterns {
		patterns[i].offset += inputServers
	}
	total += inputServers

	nHeavy := 0
	for i := range heavy {
		nHeavy += len(heavy[i])
	}

	atomDims := make([][]int, q.NumAtoms())
	routes := make([]map[string][]*genPattern, q.NumAtoms())
	for j, a := range q.Atoms {
		dims := make([]int, len(a.Vars))
		for c, v := range a.Vars {
			dims[c] = q.VarIndex(v)
		}
		atomDims[j] = dims
		routes[j] = make(map[string][]*genPattern)
		var buf []byte
		for _, pat := range patterns {
			pat.routes = append(pat.routes, pat.grid.Compile(dims))
			buf = appendSignature(buf[:0], dims, func(c, d int) (int64, bool) {
				hv, pinned := pat.assign[d]
				return hv, pinned
			})
			routes[j][string(buf)] = append(routes[j][string(buf)], pat)
		}
	}
	return &GenericPlan{
		heavy:        heavy,
		patterns:     patterns,
		inputServers: inputServers,
		totalServers: total,
		nHeavy:       nHeavy,
		atomDims:     atomDims,
		routes:       routes,
	}
}

// RunGeneric computes an arbitrary connected conjunctive query in one round
// with heavy-hitter statistics, under a layout prepared by PrepareGeneric
// and with every round delivered and metered through env. It generalizes
// the star and triangle algorithms of Section 4.2 along the lines the paper
// attributes to its follow-up ("the BinHC algorithm", reference [6]): the domain of every
// variable is split into heavy values (frequency ≥ m_j/p in some adjacent
// relation) and light values, and every *output pattern* — an assignment of
// heavy values to a subset of the variables, with all other variables
// light — gets its own HyperCube block:
//
//   - the all-light pattern runs the vanilla HyperCube on p servers;
//   - a pattern σ fixing variables X runs the residual query on a grid over
//     the light variables, with shares from the share LP on the residual
//     statistics and servers allocated proportionally to the pattern's
//     packing weight.
//
// Tuples route to every pattern consistent with them; output tuples are
// produced in exactly one block (patterns partition the output), so no
// deduplication occurs. The number of blocks is Π_v (1+|H_v|), so heavy
// sets are capped at PrepareGeneric's maxHeavyPerVar (the paper notes the
// general case has no tight bound; this is the honest simplified
// construction).
//
// See RunStar for the caching contract (a reused plan is bit-identical to a
// fresh one).
func RunGeneric(gp *GenericPlan, q *query.Query, db *data.Database, p int, seed int64, env engine.Env) *Result {
	k := q.NumVars()
	heavy, patterns := gp.heavy, gp.patterns
	inputServers, total := gp.inputServers, gp.totalServers
	atomDims, routes := gp.atomDims, gp.routes
	bpv := data.BitsPerValue(db.N)

	cluster := engine.NewClusterEnv(env, total, bpv)
	defer cluster.Release()
	for j, a := range q.Atoms {
		rel := db.Get(a.Name)
		m := rel.NumTuples()
		for i := 0; i < m; i++ {
			cluster.Seed(i%inputServers, j, rel.Tuple(i))
		}
	}

	family := hashing.NewFamily(seed, k)

	cluster.Round("skew-generic", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		var sig []byte
		inbox.Each(func(j int, tuple []int64) {
			sig = appendSignature(sig[:0], atomDims[j], func(c, d int) (int64, bool) {
				return tuple[c], heavy[d][tuple[c]]
			})
			for _, pat := range routes[j][string(sig)] {
				rt := pat.routes[j]
				base := rt.Base(family, tuple)
				if base < 0 {
					continue
				}
				for _, off := range rt.Offsets {
					emit.EmitTuple(pat.offset+base+off, j, tuple)
				}
			}
		})
	})

	outputs := evaluatePhase(cluster, q, total,
		func(s int) bool { return s < inputServers },
		func(s int, res *data.Relation) *data.Relation {
			return filterPattern(res, patternOf(patterns, s), heavy)
		})
	out := data.Concat(q.Name, k, outputs)

	inputBits := 0.0
	for _, a := range q.Atoms {
		inputBits += db.Get(a.Name).SizeBits(db.N)
	}
	nHeavy := 0
	for i := range heavy {
		nHeavy += len(heavy[i])
	}
	computeS, commS := cluster.PhaseSeconds()
	return &Result{
		Output:          out,
		ServersUsed:     total,
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

// genPattern is one output class: variables in assign are pinned to heavy
// values, all others must be light. Its grid spans all k dimensions, with
// share 1 on the pinned ones.
type genPattern struct {
	assign map[int]int64
	grid   *hashing.Grid
	routes []*hashing.Route // per atom, compiled with the pattern's layout
	offset int
}

// matches reports whether a tuple of an atom (with the given variable dims)
// is consistent with the pattern.
func (pat *genPattern) matches(dims []int, tuple []int64, heavy []map[int64]bool) bool {
	for c, d := range dims {
		if hv, pinned := pat.assign[d]; pinned {
			if tuple[c] != hv {
				return false
			}
		} else if heavy[d][tuple[c]] {
			return false
		}
	}
	return true
}

func patternOf(patterns []*genPattern, s int) *genPattern {
	for _, pat := range patterns {
		if s >= pat.offset && s < pat.offset+pat.grid.P() {
			return pat
		}
	}
	return nil
}

// filterPattern drops output rows violating the pattern (can only happen
// for rows assembled from tuples whose *other* columns disagree with the
// classification; routing makes this impossible, but the filter keeps the
// partition property robust).
func filterPattern(res *data.Relation, pat *genPattern, heavy []map[int64]bool) *data.Relation {
	if pat == nil {
		return data.NewRelation(res.Name, res.Arity)
	}
	out := data.NewRelation(res.Name, res.Arity)
	for i := 0; i < res.NumTuples(); i++ {
		t := res.Tuple(i)
		ok := true
		for d := 0; d < res.Arity; d++ {
			if hv, pinned := pat.assign[d]; pinned {
				if t[d] != hv {
					ok = false
					break
				}
			} else if heavy[d][t[d]] {
				ok = false
				break
			}
		}
		if ok {
			out.AppendTuple(t)
		}
	}
	return out
}

// enumeratePatterns builds every heavy/light pattern with its grid and
// server allocation.
func enumeratePatterns(q *query.Query, db *data.Database, p int,
	heavy []map[int64]bool, freqBits []map[int64]float64) []*genPattern {
	k := q.NumVars()
	heavyVals := make([][]int64, k)
	for i := range heavy {
		for v := range heavy[i] {
			heavyVals[i] = append(heavyVals[i], v)
		}
		sort.Slice(heavyVals[i], func(a, b int) bool { return heavyVals[i][a] < heavyVals[i][b] })
	}

	var raw []map[int]int64
	cur := make(map[int]int64)
	var rec func(d int)
	rec = func(d int) {
		if d == k {
			cp := make(map[int]int64, len(cur))
			for kk, vv := range cur {
				cp[kk] = vv
			}
			raw = append(raw, cp)
			return
		}
		rec(d + 1) // d stays light
		for _, hv := range heavyVals[d] {
			cur[d] = hv
			rec(d + 1)
			delete(cur, d)
		}
	}
	rec(0)
	if len(raw) > 4096 {
		panic(fmt.Sprintf("skew: %d heavy patterns exceed the supported 4096; lower maxHeavyPerVar", len(raw)))
	}

	// Weight and shares per pattern.
	stats := make([]float64, q.NumAtoms())
	weights := make([]float64, len(raw))
	shares := make([][]int, len(raw))
	sumW := 0.0
	for pi, assign := range raw {
		for j, a := range q.Atoms {
			// Fragment size estimate: full size, or the smallest pinned
			// fiber among the atom's pinned variables.
			s := db.Get(a.Name).SizeBits(db.N)
			for _, v := range a.Vars {
				d := q.VarIndex(v)
				if hv, ok := assign[d]; ok {
					if fb := freqBits[d][hv]; fb > 0 && fb < s {
						s = fb
					}
				}
			}
			if s < 1 {
				s = 1
			}
			stats[j] = s
		}
		if len(assign) == 0 {
			weights[pi] = 0 // the all-light pattern gets the full p below
		} else {
			w := 0.0
			for mask := 1; mask < 1<<uint(q.NumAtoms()); mask++ {
				prod := 1.0
				for j := 0; j < q.NumAtoms(); j++ {
					if mask&(1<<uint(j)) != 0 {
						prod *= stats[j]
					}
				}
				w += prod
			}
			weights[pi] = w
			sumW += w
		}
		shares[pi] = patternShares(q, assign, stats, p)
	}

	out := make([]*genPattern, 0, len(raw))
	for pi, assign := range raw {
		ps := p
		if len(assign) > 0 {
			ps = 1
			if sumW > 0 {
				ps = int(float64(p) * weights[pi] / sumW)
				if ps < 1 {
					ps = 1
				}
			}
		}
		sh := patternShares(q, assign, statsFor(q, db, assign, freqBits), ps)
		out = append(out, &genPattern{assign: assign, grid: hashing.NewGrid(sh)})
	}
	return out
}

func statsFor(q *query.Query, db *data.Database, assign map[int]int64, freqBits []map[int64]float64) []float64 {
	stats := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		s := db.Get(a.Name).SizeBits(db.N)
		for _, v := range a.Vars {
			d := q.VarIndex(v)
			if hv, ok := assign[d]; ok {
				if fb := freqBits[d][hv]; fb > 0 && fb < s {
					s = fb
				}
			}
		}
		if s < 1 {
			s = 1
		}
		stats[j] = s
	}
	return stats
}

// patternShares computes integer shares over all k dims: pinned dims get
// share 1; light dims get the share-LP solution of the residual query.
func patternShares(q *query.Query, assign map[int]int64, stats []float64, ps int) []int {
	k := q.NumVars()
	sh := make([]int, k)
	for i := range sh {
		sh[i] = 1
	}
	if ps < 2 {
		return sh
	}
	// Residual query: drop pinned variables from atoms; drop atoms with no
	// light variables.
	var atoms []query.Atom
	var resStats []float64
	for j, a := range q.Atoms {
		var lightVars []string
		seen := map[string]bool{}
		for _, v := range a.Vars {
			if _, pinned := assign[q.VarIndex(v)]; !pinned && !seen[v] {
				seen[v] = true
				lightVars = append(lightVars, v)
			}
		}
		if len(lightVars) == 0 {
			continue
		}
		atoms = append(atoms, query.Atom{Name: a.Name, Vars: lightVars})
		resStats = append(resStats, math.Max(stats[j], 2))
	}
	if len(atoms) == 0 {
		return sh
	}
	res := query.New("res:"+patKey(assign), atoms...)
	exp := packing.ShareExponents(res, resStats, float64(ps))
	lightShares := integerSharesN(exp.Exponents, ps)
	for i, v := range res.Vars() {
		sh[q.VarIndex(v)] = lightShares[i]
	}
	return sh
}

func patKey(assign map[int]int64) string {
	keys := make([]int, 0, len(assign))
	for d := range assign {
		keys = append(keys, d)
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, d := range keys {
		fmt.Fprintf(&b, "%d=%d,", d, assign[d])
	}
	return b.String()
}
