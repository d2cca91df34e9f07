package localjoin

import (
	"math/bits"
	"sync"

	"mpcquery/internal/data"
	"mpcquery/internal/hashing"
	"mpcquery/internal/obs"
)

// atomIndex is the kernel's hash index over one relation: tuples bucketed by
// the values of the key columns (the atom's variables already bound when the
// atom joins), stored as an open-addressed slot table with intra-slot
// chaining. Tuple indices, not tuple copies, are chained, and chains iterate
// in ascending tuple order, so probing reproduces the baseline evaluator's
// match order exactly. Tuples that disagree with themselves on repeated
// variables of the atom are filtered at build time and never enter a chain.
//
// There is no string key materialization: the probe hashes raw int64 values
// (hashing.Combine) and resolves hash collisions by comparing the key
// columns against the candidate tuple in place.
type atomIndex struct {
	arity   int
	keyCols []int32 // relation column of each key variable (first occurrence)
	vals    []int64 // flat row-major tuple storage (view or owned copy)
	head    []int32 // slot -> first chained tuple index + 1 (0 = empty)
	next    []int32 // tuple index + 1 -> next chained tuple index + 1
	mask    uint64
	keybuf  []int64 // build-time key gather buffer
}

// hashSeed is the starting state for key hashing; build and probe must use
// the identical chain of hashing.Combine calls.
const hashSeed = 0x51a0f3c2b44e9d17

func hashKey(key []int64) uint64 {
	h := uint64(hashSeed)
	for _, v := range key {
		h = hashing.Combine(h, uint64(v))
	}
	return h
}

// build (re)constructs the index over rel. keyCols are the relation columns
// forming the probe key (possibly empty: every consistent tuple lands in one
// chain — the cartesian step). eqPairs are the column pairs that must agree
// for a tuple to be self-consistent, precomputed once per atom. When
// copyVals is set the index snapshots the relation's values into its own
// storage, detaching it from later mutation of rel — required for indexes
// published to a shared IndexCache while per-worker fragment buffers are
// recycled underneath them.
func (ix *atomIndex) build(rel *data.Relation, keyCols []int, eqPairs [][2]int, copyVals bool) {
	m := rel.NumTuples()
	ix.arity = rel.Arity
	ix.keyCols = ix.keyCols[:0]
	for _, c := range keyCols {
		ix.keyCols = append(ix.keyCols, int32(c))
	}
	if copyVals {
		ix.vals = append(ix.vals[:0], rel.Vals()...)
	} else {
		ix.vals = rel.Vals()
	}

	size := 1
	if m > 0 {
		size = 1 << bits.Len(uint(2*m-1)) // next power of two ≥ 2m
	}
	if cap(ix.head) < size {
		ix.head = make([]int32, size)
	} else {
		ix.head = ix.head[:size]
		for i := range ix.head {
			ix.head[i] = 0
		}
	}
	if cap(ix.next) < m+1 {
		ix.next = make([]int32, m+1)
	} else {
		ix.next = ix.next[:m+1]
	}
	ix.mask = uint64(size - 1)

	// Insert descending with chain prepend: each slot's chain then iterates
	// tuples in ascending index order, matching the baseline's per-key match
	// order (which multiset-insensitive callers never see, but the
	// order-sensitive Report.Fingerprint does).
	arity := ix.arity
	nk := len(ix.keyCols)
	if cap(ix.keybuf) < nk {
		ix.keybuf = make([]int64, nk)
	}
	key := ix.keybuf[:nk]
	for i := m - 1; i >= 0; i-- {
		base := i * arity
		ok := true
		for _, p := range eqPairs {
			if ix.vals[base+p[0]] != ix.vals[base+p[1]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for t, kc := range ix.keyCols {
			key[t] = ix.vals[base+int(kc)]
		}
		slot := hashKey(key) & ix.mask
		ix.next[i+1] = ix.head[slot]
		ix.head[slot] = int32(i + 1)
	}
}

// indexKey identifies one shareable index build: the atom being joined, the
// content identity of the relation under it, and the signature of the build
// inputs (the same atom joins under different key sets when per-server
// greedy orders differ).
type indexKey struct {
	atom  string
	ident uint64
	sig   uint64
}

// colSig digests everything besides the relation content that shapes an
// index build: arity, the key-column layout, and the repeated-variable
// pairs filtered at build time. The eqPairs belong in the signature even
// though they are atom-determined — callers below Run's desugaring can
// legally present two atoms with the same name but different
// repeated-variable patterns, and those must not share a build.
func colSig(arity int, keyCols []int, eqPairs [][2]int) uint64 {
	h := hashing.Combine(0x7be3_55c1_9a04_d6ef, uint64(arity))
	h = hashing.Combine(h, uint64(len(keyCols)))
	for _, c := range keyCols {
		h = hashing.Combine(h, uint64(c))
	}
	h = hashing.Combine(h, uint64(len(eqPairs)))
	for _, p := range eqPairs {
		h = hashing.Combine(h, uint64(p[0])<<32|uint64(p[1]))
	}
	return h
}

// IndexCache shares atom-index builds across the servers of one computation
// phase. Skew-free HyperCube grids replicate each relation fragment along
// the dimensions its atom does not constrain, so whole slices of the grid
// receive byte-identical fragments and would otherwise rebuild the same
// index; the cache keys builds by (atom, relation content identity,
// key-column signature) and lets every later server reuse the first build.
//
// A cache is scoped to one computation phase (one round's local evaluation)
// and must not outlive the phase: cached indexes snapshot fragment contents,
// and the identity keying is only meaningful while the query and kind
// numbering are fixed. It is safe for concurrent use by the phase's workers.
type IndexCache struct {
	mu sync.Mutex
	m  map[indexKey]*cacheEntry

	hits, misses int
}

// cacheEntry is one single-flight slot: the first worker to claim a key
// builds into it and closes ready; later workers block on ready instead of
// duplicating the O(m) build — at the start of a phase every worker hits
// the same hot keys simultaneously, exactly the case the cache targets.
type cacheEntry struct {
	ready chan struct{}
	ix    *atomIndex
}

// NewIndexCache returns an empty cache for one computation phase.
func NewIndexCache() *IndexCache {
	return &IndexCache{m: make(map[indexKey]*cacheEntry)}
}

// getOrBuild returns the index for k, invoking build exactly once per key
// across all workers (single flight). build must not re-enter the cache.
func (c *IndexCache) getOrBuild(k indexKey, build func() *atomIndex) *atomIndex {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e.ix
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.m[k] = e
	c.misses++
	c.mu.Unlock()
	e.ix = build()
	close(e.ready)
	return e.ix
}

// Stats returns the cache's hit/miss counters (builds = misses). It is for
// observability and tests; calling it concurrently with the phase is safe.
func (c *IndexCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Kernel index-cache totals in the process-wide registry, fed by Publish
// once per computation phase — the kernel's inner loops never touch them.
var (
	obsCacheHits   = obs.Default().Counter("mpc_kernel_index_cache_hits_total")
	obsCacheMisses = obs.Default().Counter("mpc_kernel_index_cache_misses_total")
)

// Publish flushes the cache's final hit/miss totals into the process-wide
// registry and, when ct is a live trace sink, into the run's trace.
// Strategies call it once, after the computation phase the cache served.
// The totals are deterministic for a seeded run: single-flight keying
// makes misses exactly the number of distinct (atom, fragment) keys,
// regardless of worker scheduling.
func (c *IndexCache) Publish(ct *obs.ClusterTrace) {
	hits, misses := c.Stats()
	obsCacheHits.Add(int64(hits))
	obsCacheMisses.Add(int64(misses))
	ct.ObserveKernelCache(int64(hits), int64(misses))
}
