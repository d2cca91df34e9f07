package skew

import (
	"math/rand"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

// StatsResult reports the one-round distributed statistics protocol.
type StatsResult struct {
	// PerAtom holds one value → estimated-global-frequency map per
	// (relation, column) pair of the StatsSpec, in spec order.
	PerAtom     []map[int64]int
	MaxLoadBits float64 // max bits any server received in the statistics round
	TotalBits   float64 // total bits communicated by the statistics round
	Rounds      int     // always 1: the protocol is one genuine MPC round
	Aborted     bool    // a declared load cap was exceeded by the stats round
}

// statsBitsPerValue is the fixed width charged per broadcast value:
// candidates travel as (value, count) pairs of int64s, a generous width
// that upper-bounds ⌈log₂ n⌉ for any int64 domain.
const statsBitsPerValue = 64

// StatsSpec pins down one invocation of the sampling protocol: the relation
// columns to profile and the per-relation candidate thresholds. It exists so
// a caching layer can derive the exact same protocol inputs as the inline
// path and replay (or skip) the round deterministically.
type StatsSpec struct {
	Rels       []*data.Relation
	Cols       []int
	Thresholds []int
}

// StarStatsSpec returns the spec for the sampled star algorithm: every
// atom's z-column, with the conservative m_j/(4p) candidate cut.
func StarStatsSpec(q *query.Query, db *data.Database, p int) StatsSpec {
	zName := q.Atoms[0].Vars[0]
	l := q.NumAtoms()
	spec := StatsSpec{
		Rels:       make([]*data.Relation, l),
		Cols:       make([]int, l),
		Thresholds: make([]int, l),
	}
	for j, a := range q.Atoms {
		spec.Rels[j] = db.Get(a.Name)
		spec.Cols[j] = colOf(a, zName)
		thr := spec.Rels[j].NumTuples() / (4 * p) // conservative candidate cut
		if thr < 2 {
			thr = 2
		}
		spec.Thresholds[j] = thr
	}
	return spec
}

// Run is RunNet in process under a declared load cap in bits (0 = none).
func (spec StatsSpec) Run(p, sampleSize int, seed int64, capBits float64) *StatsResult {
	return spec.RunNet(p, sampleSize, seed, engine.Env{LoadCapBits: capBits})
}

// RunNet estimates the per-value frequencies of the spec's ℓ relation
// columns in ONE MPC round on a single cluster, delivered and metered
// through env (its load cap applies to the round), making executable the
// paper's remark that heavy-hitter statistics "can be easily obtained in
// advance from small samples of the input" (Section 1):
//
//   - every relation is partitioned over the same p servers (free, per the
//     model), tagged with its atom index as the message kind;
//   - each server samples up to sampleSize of its local tuples per
//     relation, counts the sampled values, scales to its partition size,
//     and broadcasts every candidate whose scaled estimate reaches that
//     relation's candidate threshold, tagged with the atom's kind;
//   - every server sums the broadcast estimates per atom, so afterwards all
//     servers agree on the (approximate) statistics, as the model assumes.
//
// Because all ℓ atoms share one communication round, a server's load is the
// SUM of the candidate traffic across atoms — the honest accounting for the
// protocol (running ℓ separate rounds and taking the max would understate
// both cost dimensions). The communication is O(p · candidates) values per
// server: with the paper's m/p heavy-hitter threshold there are at most p
// true candidates per relation and server, keeping the statistics round's
// load well below the data rounds'.
//
// The result is deterministic in (spec, p, sampleSize, seed, cap), which is
// what makes it cacheable: replaying a cached StatsResult and re-running
// the protocol yield identical estimates and identical bit charges.
func (spec StatsSpec) RunNet(p, sampleSize int, seed int64, env engine.Env) *StatsResult {
	rels, cols, candidateThresholds := spec.Rels, spec.Cols, spec.Thresholds
	l := len(rels)
	cluster := engine.NewClusterEnv(env, p, statsBitsPerValue)
	defer cluster.Release()
	for j, rel := range rels {
		m := rel.NumTuples()
		for i := 0; i < m; i++ {
			cluster.Seed(i%p, j, rel.Tuple(i))
		}
	}
	st := cluster.Round("stats-sample", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		rng := rand.New(rand.NewSource(seed + int64(s)))
		// Collect each atom's local tuples (batch views — seeding coalesces
		// each atom's round-robin share into contiguous batches).
		perKind := make([][]engine.Batch, l)
		locals := make([]int, l)
		inbox.EachBatch(func(b engine.Batch) {
			perKind[b.Kind] = append(perKind[b.Kind], b)
			locals[b.Kind] += b.NumTuples()
		})
		pair := make([]int64, 2)
		for j := 0; j < l; j++ {
			local := locals[j]
			if local == 0 {
				continue
			}
			col := cols[j]
			counts := make(map[int64]int)
			n := sampleSize
			if n >= local {
				for _, b := range perKind[j] {
					for i := 0; i < b.NumTuples(); i++ {
						counts[b.Tuple(i)[col]]++
					}
				}
				n = local
			} else {
				at := func(i int) []int64 {
					for _, b := range perKind[j] {
						if i < b.NumTuples() {
							return b.Tuple(i)
						}
						i -= b.NumTuples()
					}
					panic("skew: sample index out of range")
				}
				for t := 0; t < n; t++ {
					counts[at(rng.Intn(local))[col]]++
				}
			}
			scale := float64(local) / float64(n)
			// Broadcast candidates in ascending value order, not map order:
			// emission order reaches every inbox (and, distributed, the
			// wire), so it must be a pure function of the sampled counts.
			for _, v := range data.SortedKeys(counts) {
				est := int(float64(counts[v]) * scale)
				if est >= candidateThresholds[j] {
					pair[0], pair[1] = v, int64(est)
					emit.EmitTuple(engine.Broadcast, j, pair)
				}
			}
		}
	})
	perAtom := make([]map[int64]int, l)
	for j := range perAtom {
		perAtom[j] = make(map[int64]int)
	}
	cluster.Inbox(0).Each(func(kind int, tuple []int64) { // all servers hold the same broadcasts
		perAtom[kind][tuple[0]] += int(tuple[1])
	})
	return &StatsResult{
		PerAtom:     perAtom,
		MaxLoadBits: st.MaxRecvBits,
		TotalBits:   st.TotalRecvBits,
		Rounds:      cluster.NumRounds(),
		Aborted:     cluster.Aborted(),
	}
}

// AddStatsCharges folds the statistics round's cost into a data-round
// Result: one extra round, its communication added to TotalBits, the load
// maximum taken across both phases, and the abort flag joined. This is THE
// accounting seam between "cached" and "charged": a service may skip
// re-executing the sampling round when it holds the StatsResult, but it must
// still pass the cached result through here so the Report charges the bits
// the protocol would have moved — the paper's cost model meters
// communication of the algorithm, not of the implementation's memoization.
func AddStatsCharges(res *Result, st *StatsResult) {
	res.Rounds += st.Rounds
	res.TotalBits += st.TotalBits
	if st.MaxLoadBits > res.MaxLoadBits {
		res.MaxLoadBits = st.MaxLoadBits
	}
	if res.InputBits > 0 {
		res.ReplicationRate = res.TotalBits / res.InputBits
	}
	res.Aborted = res.Aborted || st.Aborted
}
