package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/query"
)

// shuffleOnce seeds a fresh cluster with db under the partitioned-input
// model, runs pl's HyperCube shuffle round and releases the cluster.
func shuffleOnce(pl *Plan, db *data.Database, seed int64) {
	grid := hashing.NewGrid(pl.Shares)
	cluster := engine.NewCluster(grid.P(), data.BitsPerValue(db.N))
	partitionedSeeding(db)(cluster, pl.Query, grid.P())
	shuffle(cluster, "hypercube-shuffle", pl.Query, grid, hashing.NewFamily(seed, pl.Query.NumVars()))
	cluster.Release()
}

// shuffleCase is a triangle matching database of m tuples per relation
// and its HyperCube plan on p=64 servers.
func shuffleCase(m int) (*Plan, *data.Database) {
	q := query.Triangle()
	db := data.MatchingDatabase(rand.New(rand.NewSource(int64(m))), q, m, int64(m))
	return PlanForDatabase(q, db, 64, SkewFree), db
}

// TestShuffleAllocsIndependentOfM is the routing regression gate: the
// HyperCube shuffle's allocations are O(p) — cluster set-up and per-server
// scratch — not O(tuples × replication), so quadrupling m must not add
// allocations beyond a per-server slack. Both sizes are measured after
// warm-up runs at the larger size on one P with the collector off, so the engine's
// pooled inbox arenas and send buffers already have their final capacity.
func TestShuffleAllocsIndependentOfM(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	const m = 2000
	plSmall, dbSmall := shuffleCase(m)
	plLarge, dbLarge := shuffleCase(4 * m)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		shuffleOnce(plLarge, dbLarge, 1)
	}
	small := testing.AllocsPerRun(10, func() { shuffleOnce(plSmall, dbSmall, 1) })
	large := testing.AllocsPerRun(10, func() { shuffleOnce(plLarge, dbLarge, 1) })
	t.Logf("allocs per shuffle: m=%d: %.0f, m=%d: %.0f", m, small, 4*m, large)
	if large > small+64 {
		t.Fatalf("shuffle allocations grow with m: %.0f at m=%d vs %.0f at m=%d", large, 4*m, small, m)
	}
}

// BenchmarkHyperCubeShuffle measures the HyperCube shuffle round alone —
// seeding, routing and delivery — for the triangle at m=20000, p=64.
func BenchmarkHyperCubeShuffle(b *testing.B) {
	pl, db := shuffleCase(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shuffleOnce(pl, db, int64(i))
	}
}
