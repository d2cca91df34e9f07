package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"mpcquery"
	"mpcquery/internal/advisor"
	"mpcquery/internal/core"
	"mpcquery/internal/multiround"
	"mpcquery/internal/skew"
	"mpcquery/internal/transport"
)

// kind is one request shape of a workload's mix: a query, its inputs and
// the options every request of that shape carries.
type kind struct {
	name string
	q    *mpcquery.Query
	// dbs holds one database per rank; in-process workloads have one.
	dbs  []*mpcquery.Database
	opts []mpcquery.RunOption
	// stream sends the output into a DigestSink with WithStreaming(true)
	// instead of materializing it.
	stream bool
	// countBy holds the group-by variables of the COUNT aggregate the
	// request computes; nil for a join.
	countBy []string

	// layer and plan name the public planning entry point the kind's
	// strategy reaches; plan repeats that call on the kind's inputs.
	layer string
	plan  func()

	ref reference
	// refOut is the reference run's materialized output, kept from set-up
	// until the oracle has checked it.
	refOut *mpcquery.Relation
}

// reference is what every measured request of a kind must reproduce.
type reference struct {
	fingerprint string
	digest      uint64 // DigestSink digest, for stream kinds
	totalBits   float64
	maxLoadBits float64
}

// stepOut is one request's outcome: one report per rank.
type stepOut struct {
	reps    []*mpcquery.Report
	sinks   []*mpcquery.DigestSink
	traces  []*mpcquery.Trace
	wire    []mpcquery.TransportWireStats // per-rank deltas, loopback only
	latency time.Duration
	err     error
}

// instance is a set-up workload: generated inputs, the running system
// and the reference answers.
type instance struct {
	kinds []*kind
	// mix is the request cycle, as indexes into kinds: one 5- or 7-slot
	// pattern per draw of the inputs. Every request type fills a multiple
	// of 1/5 or 1/7 of the cycle, so the 50th and 90th latency percentiles
	// fall inside one type's share of the sorted latencies rather than on
	// a boundary between types.
	mix     []int
	clients int
	// writeEvery > 0 precedes every writeEvery-th request of a client by
	// InvalidateDatabase on that request's database.
	writeEvery int

	svc *mpcquery.Service
	rts []*mpcquery.DistributedRuntime
}

// sizes are the input sizes (m tuples per relation, p servers) of each
// workload, the oracle's sample of a large first relation, and how often
// and for how long at least set-up is repeated.
type sizes struct {
	batchM, batchP       int
	serviceM, serviceP   int
	loopbackM, loopbackP int
	oracleSample         int
	setupRep             int
	setupMin             time.Duration
}

var fullSizes = sizes{
	batchM: 20000, batchP: 64,
	serviceM: 120, serviceP: 16,
	loopbackM: 4000, loopbackP: 16,
	oracleSample: 100, setupRep: 5, setupMin: 1500 * time.Millisecond,
}

var tinySizes = sizes{
	batchM: 300, batchP: 8,
	serviceM: 60, serviceP: 8,
	loopbackM: 200, loopbackP: 8,
	oracleSample: 1 << 30, setupRep: 2,
}

type workload struct {
	name  string
	build func(seed int64, sz sizes) (*instance, error)
}

var workloads = []workload{
	{"batch-large", buildBatch},
	{"service-skewed-small", buildService},
	{"loopback-2rank", buildLoopback},
}

// uniformTriangle fills S1..S3 with m uniform pairs over a domain of about
// m^(2/3) values: every value has about m^(1/3) partners, so the input
// has no heavy hitters and the triangle output has about m rows.
func uniformTriangle(rng *rand.Rand, m int) *mpcquery.Database {
	d := int64(math.Ceil(math.Pow(float64(m), 2.0/3)))
	db := mpcquery.NewDatabase(d)
	for _, name := range []string{"S1", "S2", "S3"} {
		r := mpcquery.NewRelation(name, 2)
		for i := 0; i < m; i++ {
			r.Append(rng.Int63n(d), rng.Int63n(d))
		}
		db.Add(r)
	}
	return db
}

// skewedChain is a 4-chain of permutations of [0,m) whose join variable x2
// has one heavy value, carried by a sixth of S2 and of S3: the heavy
// value alone joins (m/6)² paths.
func skewedChain(rng *rand.Rand, m int) *mpcquery.Database {
	n := int64(m)
	db := mpcquery.ChainMatchingDatabase(rng, 4, m, n)
	for name, col := range map[string]int{"S2": 1, "S3": 0} {
		old := db.Relations[name]
		r := mpcquery.NewRelation(name, 2)
		for i := 0; i < m; i++ {
			t := append([]int64(nil), old.Tuple(i)...)
			if i < m/6 {
				t[col] = n // outside [0,n): collides with no permutation value
			}
			r.AppendTuple(t)
		}
		db.Relations[name] = r
	}
	db.N = n + 1
	return db
}

// skewedTriangle is SkewedTriangleDatabase with x1 = 7 heavy in S1 and S3,
// plus S2 tuples closing half of the heavy value's wedges, so the output
// is never empty.
func skewedTriangle(rng *rand.Rand, m int, n int64) *mpcquery.Database {
	heavy := m / 6
	db := mpcquery.SkewedTriangleDatabase(rng, m, n, 7, heavy)
	s1, s2, s3 := db.Relations["S1"], db.Relations["S2"], db.Relations["S3"]
	for i := 0; i < heavy/2; i++ {
		s2.Append(s1.At(i, 1), s3.At(i, 0))
	}
	return db
}

func hyperCubePlan(q *mpcquery.Query, db *mpcquery.Database, p int) func() {
	return func() { core.PlanForDatabase(q, db, p, core.SkewFree) }
}

func buildBatch(seed int64, sz sizes) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	m, p := sz.batchM, sz.batchP
	tri := uniformTriangle(rng, m)
	chain4 := mpcquery.ChainMatchingDatabase(rng, 4, m, int64(m))
	chain8 := mpcquery.ChainMatchingDatabase(rng, 8, m, int64(m))
	// The triangle's max load turns on how its few hundred values per
	// attribute hash onto the shares (±10% from one draw to the next), so
	// its two slots in the mix run two draws, each with its own hash seed.
	tri2 := uniformTriangle(rng, m)
	base := []mpcquery.RunOption{mpcquery.WithServers(p), mpcquery.WithSeed(seed)}
	base2 := []mpcquery.RunOption{mpcquery.WithServers(p), mpcquery.WithSeed(rng.Int63())}
	const eps = 0.25 // kε = 2 atoms per block: 3 rounds for L8
	kinds := []*kind{
		{name: "hypercube-triangle/0", q: mpcquery.Triangle(), dbs: one(tri), opts: base,
			layer: "packing", plan: hyperCubePlan(mpcquery.Triangle(), tri, p)},
		{name: "hypercube-chain4", q: mpcquery.Chain(4), dbs: one(chain4), opts: base,
			layer: "packing", plan: hyperCubePlan(mpcquery.Chain(4), chain4, p)},
		{name: "chainplan-chain8", q: mpcquery.Chain(8), dbs: one(chain8),
			opts:  with(base, mpcquery.WithStrategy(mpcquery.ChainPlan(eps))),
			layer: "multiround", plan: func() { multiround.ChainPlan(8, eps) }},
		{name: "streamed-chain4", q: mpcquery.Chain(4), dbs: one(chain4), opts: base, stream: true,
			layer: "packing", plan: hyperCubePlan(mpcquery.Chain(4), chain4, p)},
		{name: "hypercube-triangle/1", q: mpcquery.Triangle(), dbs: one(tri2), opts: base2,
			layer: "packing", plan: hyperCubePlan(mpcquery.Triangle(), tri2, p)},
	}
	inst := &instance{kinds: kinds, mix: []int{0, 1, 2, 3, 4}, clients: 1}
	return inst, inst.prepare()
}

// serviceTenants is how many independent sets of databases, each with its
// own hash seed, the service workload serves. Each tenant adds one 7-slot
// pattern to the mix. The work a small skewed request does depends on its
// draw of the data and of the hash functions (what the sampling round
// finds heavy, how the light values spread), so a cycle over several
// draws keeps one seed's figures close to another's.
const serviceTenants = 8

func buildService(seed int64, sz sizes) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	m, p := sz.serviceM, sz.serviceP
	n := int64(1 << 12)
	const sample = 32
	const eps = 0.0
	starQ, triQ, chainQ := mpcquery.Star(2), mpcquery.Triangle(), mpcquery.Chain(4)
	inst := &instance{clients: 2, writeEvery: 16}
	for t := 0; t < serviceTenants; t++ {
		seed := rng.Int63()
		base := []mpcquery.RunOption{mpcquery.WithServers(p), mpcquery.WithSeed(seed)}
		star := mpcquery.SkewedStarDatabase(rng, 2, m, n, map[int64]int{1: m / 4, 2: m / 8})
		tri := skewedTriangle(rng, m, n)
		chain := skewedChain(rng, m)
		first := len(inst.kinds)
		for _, k := range []*kind{
			{name: "skewed-star-sampled", q: starQ, dbs: one(star),
				opts:  with(base, mpcquery.WithStrategy(mpcquery.SkewedStarSampled(sample))),
				layer: "skew", plan: func() { skew.StarStatsSpec(starQ, star, p).Run(p, sample, seed, 0) }},
			{name: "skewed-star", q: starQ, dbs: one(star),
				opts: with(base, mpcquery.WithStrategy(mpcquery.SkewedStar()))},
			{name: "skewed-triangle", q: triQ, dbs: one(tri),
				opts: with(base, mpcquery.WithStrategy(mpcquery.SkewedTriangle()))},
			{name: "greedy-plan-skew-aware", q: chainQ, dbs: one(chain),
				opts:  with(base, mpcquery.WithStrategy(mpcquery.GreedyPlanSkewAware(eps))),
				layer: "multiround", plan: func() { multiround.GreedyPlan(chainQ, eps) }},
			{name: "auto", q: chainQ, dbs: one(chain),
				opts:  with(base, mpcquery.WithStrategy(mpcquery.Auto())),
				layer: "advisor", plan: advisePlan(chainQ, chain, p)},
			{name: "star-count", q: starQ, dbs: one(star),
				opts:    with(base, mpcquery.WithAggregate(mpcquery.AggCount, "", "z")),
				countBy: []string{"z"},
				layer:   "packing", plan: hyperCubePlan(starQ, star, p)},
		} {
			k.name = fmt.Sprintf("%s/tenant%d", k.name, t)
			inst.kinds = append(inst.kinds, k)
		}
		for _, i := range []int{0, 1, 2, 3, 4, 5, 0} {
			inst.mix = append(inst.mix, first+i)
		}
	}
	inst.svc = mpcquery.NewService(mpcquery.WithServiceWorkers(2))
	if err := inst.prepare(); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

func advisePlan(q *mpcquery.Query, db *mpcquery.Database, p int) func() {
	M := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		M[j] = db.Relations[a.Name].SizeBits(db.N)
	}
	return func() { advisor.Advise(q, M, p) }
}

// loopbackVariants is how many independent draws of the inputs and hash
// seed the worker group serves, each with its own 5-slot pattern in the
// mix: the triangle on three draws of its own, since its max load moves
// by about ±10% with how its values hash onto the shares, and one draw of
// the 8-chain, twice.
const loopbackVariants = 4

func buildLoopback(seed int64, sz sizes) (*instance, error) {
	const ranks, trianglesPerVariant = 2, 3
	m, p := sz.loopbackM, sz.loopbackP
	const eps = 0.25
	// Each rank generates its own copy of the inputs from the same seed,
	// as separate processes would. Index v*trianglesPerVariant+t is
	// triangle t of variant v.
	tris := make([][]*mpcquery.Database, loopbackVariants*trianglesPerVariant)
	triSeeds := make([]int64, len(tris))
	chains := make([][]*mpcquery.Database, loopbackVariants)
	seeds := make([]int64, loopbackVariants)
	for r := 0; r < ranks; r++ {
		rng := rand.New(rand.NewSource(seed))
		for v := 0; v < loopbackVariants; v++ {
			seeds[v] = rng.Int63()
			chains[v] = append(chains[v], mpcquery.ChainMatchingDatabase(rng, 8, m, int64(m)))
			for t := v * trianglesPerVariant; t < (v+1)*trianglesPerVariant; t++ {
				triSeeds[t] = rng.Int63()
				tris[t] = append(tris[t], uniformTriangle(rng, m))
			}
		}
	}
	inst := &instance{clients: 1}
	for v := 0; v < loopbackVariants; v++ {
		chain := len(inst.kinds)
		inst.kinds = append(inst.kinds, &kind{name: fmt.Sprintf("chainplan-chain8/%d", v), q: mpcquery.Chain(8),
			dbs:   chains[v],
			opts:  []mpcquery.RunOption{mpcquery.WithServers(p), mpcquery.WithSeed(seeds[v]), mpcquery.WithStrategy(mpcquery.ChainPlan(eps))},
			layer: "multiround", plan: func() { multiround.ChainPlan(8, eps) }})
		for t := v * trianglesPerVariant; t < (v+1)*trianglesPerVariant; t++ {
			inst.kinds = append(inst.kinds, &kind{name: fmt.Sprintf("hypercube-triangle/%d", t), q: mpcquery.Triangle(),
				dbs: tris[t], opts: []mpcquery.RunOption{mpcquery.WithServers(p), mpcquery.WithSeed(triSeeds[t])},
				layer: "packing", plan: hyperCubePlan(mpcquery.Triangle(), tris[t][0], p)})
		}
		for _, i := range []int{1, 0, 2, 0, 3} {
			inst.mix = append(inst.mix, chain+i)
		}
	}
	rts, err := dialLoopback(ranks)
	if err != nil {
		return nil, err
	}
	inst.rts = rts
	if err := inst.prepare(); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// dialLoopback brings up a worker group of ranks on loopback TCP, one
// goroutine per rank, and returns once every rank is connected.
func dialLoopback(ranks int) ([]*mpcquery.DistributedRuntime, error) {
	addrs, err := transport.FreeLoopbackAddrs(ranks)
	if err != nil {
		return nil, fmt.Errorf("reserve loopback addresses: %w", err)
	}
	rts := make([]*mpcquery.DistributedRuntime, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rts[r], errs[r] = mpcquery.DialRuntime(r, addrs, mpcquery.WithDialBudget(40, 20*time.Millisecond))
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			for _, rt := range rts {
				if rt != nil {
					rt.Close()
				}
			}
			return nil, fmt.Errorf("dial rank %d: %w", r, err)
		}
	}
	return rts, nil
}

func one(db *mpcquery.Database) []*mpcquery.Database { return []*mpcquery.Database{db} }

func with(base []mpcquery.RunOption, extra ...mpcquery.RunOption) []mpcquery.RunOption {
	return append(append([]mpcquery.RunOption(nil), base...), extra...)
}

// prepare takes every kind's reference from a plain in-process Run and
// drives one warm-up cycle of the mix through the workload's own path.
func (in *instance) prepare() error {
	for _, k := range in.kinds {
		if err := takeReference(k); err != nil {
			return fmt.Errorf("%s: reference run: %w", k.name, err)
		}
	}
	for _, ki := range in.mix {
		k := in.kinds[ki]
		if err := in.verify(k, in.exec(k, false)); err != nil {
			return fmt.Errorf("%s: warm-up: %w", k.name, err)
		}
	}
	return nil
}

func (in *instance) close() {
	if in.svc != nil {
		in.svc.Close()
	}
	for _, rt := range in.rts {
		rt.Close()
	}
}

// exec issues one request of kind k through the workload's path: a plain
// Run, a Service request, or the same Run on every rank at once.
func (in *instance) exec(k *kind, traced bool) stepOut {
	ranks := len(k.dbs)
	out := stepOut{
		reps:   make([]*mpcquery.Report, ranks),
		sinks:  make([]*mpcquery.DigestSink, ranks),
		traces: make([]*mpcquery.Trace, ranks),
	}
	opts := make([][]mpcquery.RunOption, ranks)
	for r := range opts {
		opts[r] = append([]mpcquery.RunOption(nil), k.opts...)
		if k.stream {
			out.sinks[r] = &mpcquery.DigestSink{}
			opts[r] = append(opts[r], mpcquery.WithStreaming(true), mpcquery.WithOutputSink(out.sinks[r]))
		}
		if in.rts != nil {
			opts[r] = append(opts[r], mpcquery.WithRuntime(in.rts[r]))
		}
	}
	if in.rts != nil {
		before := make([]mpcquery.TransportWireStats, ranks)
		for r, rt := range in.rts {
			before[r] = rt.WireStats()
		}
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		start := time.Now()
		for r := 0; r < ranks; r++ {
			if traced {
				out.traces[r] = mpcquery.NewTrace()
				opts[r] = append(opts[r], mpcquery.WithTrace(out.traces[r]))
			}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				out.reps[r], errs[r] = mpcquery.Run(k.q, k.dbs[r], opts[r]...)
			}(r)
		}
		wg.Wait()
		out.latency = time.Since(start)
		out.wire = make([]mpcquery.TransportWireStats, ranks)
		for r, rt := range in.rts {
			out.wire[r] = wireDelta(rt.WireStats(), before[r])
			if errs[r] != nil && out.err == nil {
				out.err = fmt.Errorf("rank %d: %w", r, errs[r])
			}
		}
		return out
	}
	if traced {
		out.traces[0] = mpcquery.NewTrace()
		opts[0] = append(opts[0], mpcquery.WithTrace(out.traces[0]))
	}
	start := time.Now()
	if in.svc != nil {
		out.reps[0], out.err = in.svc.Run(context.Background(), k.q, k.dbs[0], opts[0]...)
	} else {
		out.reps[0], out.err = mpcquery.Run(k.q, k.dbs[0], opts[0]...)
	}
	out.latency = time.Since(start)
	return out
}

func wireDelta(a, b mpcquery.TransportWireStats) mpcquery.TransportWireStats {
	return mpcquery.TransportWireStats{
		DataFrames:           a.DataFrames - b.DataFrames,
		CtrlFrames:           a.CtrlFrames - b.CtrlFrames,
		WireBytes:            a.WireBytes - b.WireBytes,
		PayloadBytes:         a.PayloadBytes - b.PayloadBytes,
		BilledPayloadBytes:   a.BilledPayloadBytes - b.BilledPayloadBytes,
		UnicastChargedBits:   a.UnicastChargedBits - b.UnicastChargedBits,
		BroadcastChargedBits: a.BroadcastChargedBits - b.BroadcastChargedBits,
		Redials:              a.Redials - b.Redials,
		Resends:              a.Resends - b.Resends,
	}
}

func (in *instance) invalidate(k *kind) {
	if in.svc != nil {
		in.svc.InvalidateDatabase(k.dbs[0])
	}
}
