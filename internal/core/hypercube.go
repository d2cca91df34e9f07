// Package core implements the paper's primary contribution: the HyperCube
// (HC) one-round algorithm of Section 3.1. Servers are organized as a
// k-dimensional grid [p1]×…×[pk] with one dimension per query variable;
// each input tuple is hashed on the variables of its atom and replicated to
// the destination subcube D(t) of equation (9); every server then evaluates
// the query locally. Correctness follows because the server
// (h1(a1),…,hk(ak)) sees every atom of a potential output tuple (a1,…,ak).
//
// Share exponents come from LP (10) (skew-free optimal, Theorem 3.4) or
// LP (18) (skew-oblivious worst case, Section 4.1), and are rounded to
// integer shares with product ≤ p.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// Mode selects which share-optimization LP drives the plan.
type Mode int

// Share optimization modes.
const (
	// SkewFree optimizes for low-skew data via LP (10); optimal for
	// matching databases (Theorem 3.4).
	SkewFree Mode = iota
	// SkewOblivious optimizes the worst case over all data distributions
	// via LP (18) (Section 4.1).
	SkewOblivious
)

// Plan is an executable HyperCube configuration for a query.
type Plan struct {
	Query     *query.Query
	Mode      Mode
	P         int       // servers requested
	Shares    []int     // integer share per variable (Π ≤ P)
	Exponents []float64 // fractional share exponents from the LP
	Lambda    float64   // optimal load exponent λ = log_p L

	StatsBits []float64 // M_j per atom, bits
}

// GridP returns the number of servers actually used, Πᵢ shares.
func (pl *Plan) GridP() int {
	g := 1
	for _, s := range pl.Shares {
		g *= s
	}
	return g
}

// PredictedLoadBits returns the LP's load prediction L = p^λ in bits. A
// single server (p ≤ 1) receives the whole input, where log_p L is
// undefined.
func (pl *Plan) PredictedLoadBits() float64 {
	if pl.P <= 1 {
		total := 0.0
		for _, m := range pl.StatsBits {
			total += m
		}
		return total
	}
	return math.Pow(float64(pl.P), pl.Lambda)
}

func (pl *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HyperCube plan for %s on p=%d\n", pl.Query, pl.P)
	for i, v := range pl.Query.Vars() {
		fmt.Fprintf(&b, "  share(%s) = %d (exponent %.4f)\n", v, pl.Shares[i], pl.Exponents[i])
	}
	fmt.Fprintf(&b, "  grid uses %d servers, predicted load %.0f bits", pl.GridP(), pl.PredictedLoadBits())
	return b.String()
}

// NewPlan builds a HyperCube plan for q over a database with the given
// per-atom sizes in bits, using p servers.
func NewPlan(q *query.Query, statsBits []float64, p int, mode Mode) *Plan {
	var sh packing.Shares
	if mode == SkewOblivious {
		sh = packing.SkewShareExponents(q, statsBits, float64(p))
	} else {
		sh = packing.ShareExponents(q, statsBits, float64(p))
	}
	shares := IntegerShares(sh.Exponents, p)
	return &Plan{
		Query:     q,
		Mode:      mode,
		P:         p,
		Shares:    shares,
		Exponents: sh.Exponents,
		Lambda:    sh.Lambda,
		StatsBits: append([]float64(nil), statsBits...),
	}
}

// PlanForDatabase computes statistics from db and builds a plan.
func PlanForDatabase(q *query.Query, db *data.Database, p int, mode Mode) *Plan {
	return NewPlan(q, StatsBits(q, db), p, mode)
}

// StatsBits returns M_j (bits) for each atom of q in db.
func StatsBits(q *query.Query, db *data.Database) []float64 {
	stats := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		stats[j] = db.Get(a.Name).SizeBits(db.N)
	}
	return stats
}

// IntegerShares rounds fractional share exponents e (for p servers) to
// integer shares with product at most p: starting from all-ones, it
// repeatedly increments the dimension whose integer share is furthest below
// its fractional target p^{e_i}, as long as the product stays within p.
func IntegerShares(e []float64, p int) []int {
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
		bestGap := 1.0 // ratio share/target; grow the most underallocated
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

// Result reports an executed one-round HyperCube run (two rounds when an
// aggregate was requested: the input shuffle plus the aggregate shuffle).
type Result struct {
	Plan   *Plan
	Output *data.Relation // full query result (union over servers)

	ServersUsed     int
	MaxLoadBits     float64 // L: max bits received by any server in any round
	MaxLoadTuples   int
	RoundLoads      []float64 // per-round max received bits, in round order
	TotalBits       float64
	InputBits       float64
	ReplicationRate float64
	Aborted         bool // the declared load cap (engine.Env.LoadCapBits) was exceeded

	// AggregateBitsSaved is the communication the pre-shuffle partial
	// aggregation removed: (raw join rows − shipped partial rows) × row bits,
	// summed over senders. 0 for plain runs and no-pushdown aggregate runs.
	AggregateBitsSaved float64

	// Wall-clock split of the simulation (not model costs): seconds spent
	// in local computation vs simulated communication delivery.
	ComputeSeconds float64
	CommSeconds    float64
}

// SharesPlan wraps explicit integer shares (one per variable of q) in a
// Plan with no LP behind it (zero exponents) — e.g. all shares on the join
// variable reproduces the naive parallel hash join of Example 4.1.
func SharesPlan(q *query.Query, db *data.Database, shares []int) *Plan {
	return &Plan{Query: q, P: prodInt(shares), Shares: append([]int(nil), shares...),
		Exponents: make([]float64, len(shares)), StatsBits: StatsBits(q, db)}
}

func prodInt(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// RunPlan executes a prepared plan on db with the given hash seed, under
// the partitioned-input model (each relation dealt round-robin), with
// every round delivered and metered through env. A declared load cap
// (env.LoadCapBits, Section 2.1's abort semantics) sets the result's
// Aborted flag when exceeded; the output is still computed, and the caller
// decides whether to retry with a fresh hash seed.
//
// A non-nil agg computes the aggregate over the join output with one extra
// communication round: every server folds (pushdown) or projects (no
// pushdown) its local join output into (group key, annotation) rows,
// routes them by key hash, and destinations fold their received rows into
// the final groups. The Result's Output is then the canonical aggregate
// relation — (group key..., value) tuples sorted lexicographically, the
// synthetic key of a global aggregate dropped — identical whether or not
// pushdown ran; only the second round's bits differ.
func RunPlan(pl *Plan, db *data.Database, seed int64, agg *aggregate.Plan, env engine.Env) *Result {
	return runPlanSeeded(pl, db, seed, agg, partitionedSeeding(db), env)
}

// partitionedSeeding deals each relation round-robin across the grid — the
// partitioned-input model of Section 2.1.
func partitionedSeeding(db *data.Database) func(*engine.Cluster, *query.Query, int) {
	return func(cluster *engine.Cluster, q *query.Query, gp int) {
		for j, a := range q.Atoms {
			rel := db.Get(a.Name)
			m := rel.NumTuples()
			for i := 0; i < m; i++ {
				cluster.Seed(i%gp, j, rel.Tuple(i))
			}
		}
	}
}

// RunPlanInputServers executes under the input-server model of Section 2.1:
// relation S_j starts wholly on server j mod p. HyperCube routing depends
// only on tuple content, so the received loads are identical to the
// partitioned-input run — the equivalence the paper uses to transfer its
// lower bounds between the two models.
func RunPlanInputServers(pl *Plan, db *data.Database, seed int64) *Result {
	return runPlanSeeded(pl, db, seed, nil, func(cluster *engine.Cluster, q *query.Query, gp int) {
		for j, a := range q.Atoms {
			rel := db.Get(a.Name)
			m := rel.NumTuples()
			for i := 0; i < m; i++ {
				cluster.Seed(j%gp, j, rel.Tuple(i))
			}
		}
	}, engine.Env{})
}

func runPlanSeeded(pl *Plan, db *data.Database, seed int64, agg *aggregate.Plan, seedInput func(*engine.Cluster, *query.Query, int), env engine.Env) *Result {
	q := pl.Query
	grid := hashing.NewGrid(pl.Shares)
	gp := grid.P()
	family := hashing.NewFamily(seed, q.NumVars())
	cluster := engine.NewClusterEnv(env, gp, data.BitsPerValue(db.N))
	defer cluster.Release()

	seedInput(cluster, q, gp)
	shuffle(cluster, "hypercube-shuffle", q, grid, family)

	// Computation phase: local evaluation on every server (no
	// communication). Each worker keeps one kernel scratch whose arenas are
	// reused across all the servers it evaluates; the round-scoped index
	// cache shares index builds between servers that received identical
	// fragments (whole grid slices do, since a tuple is replicated along
	// every dimension its atom does not constrain).
	cache := localjoin.NewIndexCache()
	scratches := localjoin.NewWorkerScratches()
	var out *data.Relation
	aggSaved := 0.0
	if agg == nil {
		// Output path: barrier-kernel materialization by default; the
		// streamed kernel when streaming is on (chunked evaluation, same
		// bytes — the memoized index cache keeps hit/miss totals identical;
		// its chunks gather in fixed-size blocks, copied once into the
		// output); and when a sink is set the output never materializes at all —
		// chunks flow straight out and Result.Output stays nil, in both
		// modes, so fingerprints agree.
		streamChunk := env.StreamChunk
		if streamChunk <= 0 {
			streamChunk = engine.DefaultStreamChunk
		}
		outputs := make([]*data.Relation, gp)
		var streamed [][][]int64 // per server, when streaming into Output
		if env.Streaming && env.Sink == nil {
			streamed = make([][][]int64, gp)
		}
		cluster.Compute(func(s, w int) {
			if cluster.Inbox(s).NumTuples() == 0 {
				outputs[s] = data.NewRelation(q.Name, q.NumVars())
				return
			}
			sc := scratches.Worker(w)
			frag := sc.Fragments(q)
			cluster.Inbox(s).EachBatch(func(b engine.Batch) {
				frag[b.Kind].AppendVals(b.Vals)
			})
			switch {
			case env.Sink != nil:
				sc.EvaluateAtomsStream(q, frag, cache, streamChunk, func(vals []int64) {
					env.Sink.Chunk(s, q.NumVars(), vals)
				})
				outputs[s] = data.NewRelation(q.Name, q.NumVars())
			case env.Streaming:
				sc.EvaluateAtomsStream(q, frag, cache, streamChunk, func(vals []int64) {
					streamed[s] = appendBlocks(streamed[s], vals, q.NumVars())
				})
			default:
				outputs[s] = sc.EvaluateAtoms(q, frag, cache)
			}
		})
		scratches.Release()
		switch {
		case streamed != nil:
			out = concatBlocks(q.Name, q.NumVars(), streamed)
		case env.Sink == nil:
			out = data.Concat(q.Name, q.NumVars(), outputs)
		}
	} else {
		out, aggSaved = runAggregatePhases(cluster, q, gp, agg, cache, scratches)
	}
	cache.Publish(cluster.Trace())

	inputBits := 0.0
	for _, a := range q.Atoms {
		inputBits += db.Get(a.Name).SizeBits(db.N)
	}
	roundLoads := make([]float64, 0, cluster.NumRounds())
	for _, rs := range cluster.Rounds() {
		roundLoads = append(roundLoads, rs.MaxRecvBits)
	}
	computeS, commS := cluster.PhaseSeconds()
	return &Result{
		Plan:               pl,
		Output:             out,
		ServersUsed:        gp,
		MaxLoadBits:        cluster.MaxLoadBits(),
		MaxLoadTuples:      cluster.MaxLoadTuples(),
		RoundLoads:         roundLoads,
		TotalBits:          cluster.TotalBits(),
		InputBits:          inputBits,
		ReplicationRate:    cluster.ReplicationRate(inputBits),
		Aborted:            cluster.Aborted(),
		AggregateBitsSaved: aggSaved,
		ComputeSeconds:     computeS,
		CommSeconds:        commS,
	}
}

// streamBlock is the size, in values, of the blocks a streamed output
// gathers in before its one final copy: a block never moves once written,
// so no growing buffer copies the output over and over.
const streamBlock = 1 << 14

// appendBlocks appends a chunk of whole rows of the given arity to blocks.
func appendBlocks(blocks [][]int64, vals []int64, arity int) [][]int64 {
	for len(vals) > 0 {
		if n := len(blocks); n == 0 || len(blocks[n-1]) == cap(blocks[n-1]) {
			blocks = append(blocks, make([]int64, 0, max(streamBlock/arity, 1)*arity))
		}
		last := &blocks[len(blocks)-1]
		k := min(len(vals), cap(*last)-len(*last))
		*last = append(*last, vals[:k]...)
		vals = vals[k:]
	}
	return blocks
}

// concatBlocks is data.Concat over per-server block lists.
func concatBlocks(name string, arity int, servers [][][]int64) *data.Relation {
	out := data.NewRelation(name, arity)
	total := 0
	for _, blocks := range servers {
		for _, b := range blocks {
			total += len(b)
		}
	}
	out.Grow(total / arity)
	for _, blocks := range servers {
		for _, b := range blocks {
			out.AppendVals(b)
		}
	}
	return out
}

// routeWindow caps the tuples routed per EmitRouted call, and so the bases
// scratch, which otherwise grows only to the largest inbox batch routed.
const routeWindow = 4096

// basesPool recycles the bases scratch across servers and runs.
var basesPool = sync.Pool{New: func() any { return new([]int) }}

// shuffle runs the HyperCube communication round of Section 3.1: every
// server routes each tuple of its inbox to the destination subcube D(t) of
// its atom. Each atom's route is compiled once; each inbox batch is routed
// a window at a time — bases for the window, then one counting scatter
// into the emitter's per-destination buffers.
func shuffle(cluster *engine.Cluster, name string, q *query.Query, grid *hashing.Grid, family *hashing.Family) {
	routes := make([]*hashing.Route, q.NumAtoms())
	for j, a := range q.Atoms {
		dims := make([]int, len(a.Vars))
		for c, v := range a.Vars {
			dims[c] = q.VarIndex(v)
		}
		routes[j] = grid.Compile(dims)
	}
	cluster.Round(name, func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		scratch := basesPool.Get().(*[]int)
		inbox.EachBatch(func(b engine.Batch) {
			rt := routes[b.Kind]
			for vals := b.Vals; len(vals) > 0; {
				w := vals[:min(len(vals), routeWindow*b.Arity)]
				vals = vals[len(w):]
				*scratch = rt.Bases(family, w, (*scratch)[:0])
				emit.EmitRouted(b.Kind, b.Arity, w, *scratch, rt.Offsets)
			}
		})
		basesPool.Put(scratch)
	})
}

// runAggregatePhases runs the aggregate tail of a plan execution: the local
// evaluation (folding when pushdown is on, materializing and projecting raw
// rows when off), the aggregate-shuffle round that routes partial rows by
// group-key hash — through the Emitter's pre-shuffle combiner on the
// pushdown path — and the destination-side final fold. It returns the
// canonical aggregate output and the bits the pushdown saved.
func runAggregatePhases(cluster *engine.Cluster, q *query.Query, gp int, agg *aggregate.Plan,
	cache *localjoin.IndexCache, scratches *localjoin.WorkerScratches) (*data.Relation, float64) {
	ka := agg.KeyArity()
	groupCols := make([]int, len(agg.GroupBy))
	for i, v := range agg.GroupBy {
		groupCols[i] = q.VarIndex(v)
	}
	aggCol := -1
	if agg.Var != "" {
		aggCol = q.VarIndex(agg.Var)
	}

	partials := make([]*data.Relation, gp)
	rawRows := make([]int, gp)
	cluster.Compute(func(s, w int) {
		if cluster.Inbox(s).NumTuples() == 0 {
			return
		}
		sc := scratches.Worker(w)
		frag := sc.Fragments(q)
		cluster.Inbox(s).EachBatch(func(b engine.Batch) {
			frag[b.Kind].AppendVals(b.Vals)
		})
		if agg.Pushdown {
			partials[s], rawRows[s] = sc.EvaluateAtomsAggregate(q, frag, cache, agg)
		} else {
			o := sc.EvaluateAtoms(q, frag, cache)
			rawRows[s] = o.NumTuples()
			partials[s] = aggregate.ProjectRaw(o, groupCols, aggCol, agg)
		}
	})
	scratches.Release()

	sentRows := make([]int, gp)
	cluster.Round("aggregate-shuffle", func(s int, _ *engine.Inbox, emit *engine.Emitter) {
		pr := partials[s]
		if pr == nil || pr.NumTuples() == 0 {
			return
		}
		m := pr.NumTuples()
		row := make([]int64, ka+1)
		if agg.Pushdown {
			// The kernel fold already left one row per distinct group key on
			// this sender, so the combiner acts as the destination
			// partitioner and raw-vs-sent meter here; its same-key merging
			// kicks in for emitters that route unfolded rows (it is the
			// general pre-shuffle hook, exercised directly in the engine
			// tests).
			cb := emit.Combiner(0, ka, agg.Semiring.Combine)
			for i := 0; i < m; i++ {
				copy(row, pr.Tuple(i))
				row[ka] = pr.Annotation(i)
				cb.Add(aggregate.DestOf(row[:ka], gp), row)
			}
			_, sentRows[s] = cb.Flush()
		} else {
			for i := 0; i < m; i++ {
				copy(row, pr.Tuple(i))
				row[ka] = pr.Annotation(i)
				emit.EmitTuple(aggregate.DestOf(row[:ka], gp), 0, row)
			}
			sentRows[s] = m
		}
	})

	outputs := make([]*data.Relation, gp)
	cluster.Compute(func(s, w int) {
		ib := cluster.Inbox(s)
		if ib.NumTuples() == 0 {
			return
		}
		t := aggregate.NewFoldTable(ka, agg.Semiring)
		ib.EachBatch(func(b engine.Batch) {
			t.AddRows(b.Vals)
		})
		outputs[s] = t.Result(q.Name)
	})

	saved := 0
	for s := 0; s < gp; s++ {
		saved += rawRows[s] - sentRows[s]
	}
	return aggregate.Finalize(q.Name, outputs, agg),
		float64(saved) * float64(ka+1) * float64(cluster.BitsPerValue())
}

// SequentialAnswer computes q(db) on one node — the ground truth for
// validating parallel runs.
func SequentialAnswer(q *query.Query, db *data.Database) *data.Relation {
	rels := make(map[string]*data.Relation, q.NumAtoms())
	for _, a := range q.Atoms {
		rels[a.Name] = db.Get(a.Name)
	}
	return localjoin.Evaluate(q, rels)
}

// SharesByName returns the plan's shares keyed by variable name, sorted for
// stable display.
func (pl *Plan) SharesByName() []string {
	vars := pl.Query.Vars()
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = fmt.Sprintf("%s=%d", v, pl.Shares[i])
	}
	sort.Strings(out)
	return out
}
