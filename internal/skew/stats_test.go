package skew

import (
	"math"
	"testing"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// fullySkewedStar builds a star database where EVERY tuple of every atom
// shares z = 7, so with exhaustive sampling each of the p servers
// broadcasts exactly one candidate (value 7) per atom — making the stats
// round's load computable by hand.
func fullySkewedStar(k, m int) *data.Database {
	db := data.NewDatabase(1 << 16)
	for j := 1; j <= k; j++ {
		rel := data.NewRelation(query.Star(k).Atoms[j-1].Name, 2)
		for i := 0; i < m; i++ {
			rel.Append(7, int64(j*100000+i))
		}
		db.Add(rel)
	}
	return db
}

// TestStatsProtocolIsOneGenuineRound pins the corrected accounting of the
// multi-atom statistics protocol: all ℓ atoms execute in ONE round on ONE
// cluster, and a server's load is the SUM of the candidate traffic across
// atoms — not the max over ℓ separately-run protocols, which understated
// both cost dimensions.
func TestStatsProtocolIsOneGenuineRound(t *testing.T) {
	const m, p = 400, 4
	db := fullySkewedStar(2, m)
	rels := []*data.Relation{db.Get("S1"), db.Get("S2")}
	cols := []int{0, 0}
	thr := []int{m / (4 * p), m / (4 * p)} // 25: well below the 100 local copies of z=7

	// Exhaustive sampling (sampleSize ≥ local partition) makes candidates
	// deterministic: every server broadcasts exactly one (7, 100) pair per
	// atom.
	st := StatsSpec{Rels: rels, Cols: cols, Thresholds: thr}.Run(p, m, 3, 0)
	if st.Rounds != 1 {
		t.Fatalf("stats protocol must be one genuine round, got %d", st.Rounds)
	}
	if len(st.PerAtom) != 2 {
		t.Fatalf("per-atom estimates: %d", len(st.PerAtom))
	}
	for j := 0; j < 2; j++ {
		if est := st.PerAtom[j][7]; est != m {
			t.Errorf("atom %d estimate for z=7: %d want %d (exhaustive sampling is exact)", j, est, m)
		}
	}
	// Load by hand: per atom, each of the p servers broadcasts one
	// (value, estimate) pair = 2 values × 64 bits, delivered to every
	// server. Per receiver and atom: p·2·64 bits; the round carges the SUM
	// over both atoms.
	perAtomBits := float64(p * 2 * statsBitsPerValue)
	if want := 2 * perAtomBits; st.MaxLoadBits != want {
		t.Errorf("stats round load=%v want %v (sum across atoms, not max)", st.MaxLoadBits, want)
	}
	if want := 2 * perAtomBits * float64(p); st.TotalBits != want {
		t.Errorf("stats round total=%v want %v", st.TotalBits, want)
	}

	// Cross-check the sum property against the single-atom protocol runs.
	s1 := StatsSpec{Rels: rels[:1], Cols: []int{0}, Thresholds: thr[:1]}.Run(p, m, 3, 0)
	s2 := StatsSpec{Rels: rels[1:2], Cols: []int{0}, Thresholds: thr[1:2]}.Run(p, m, 3, 0)
	if st.MaxLoadBits != s1.MaxLoadBits+s2.MaxLoadBits {
		t.Errorf("merged load %v must equal the sum of per-atom loads %v + %v",
			st.MaxLoadBits, s1.MaxLoadBits, s2.MaxLoadBits)
	}
}

// TestRunStarSampledHonestAccounting pins the corrected end-to-end numbers:
// Rounds counts the stats round as one genuine round, TotalBits includes
// the stats communication, MaxLoadBits is the max over the stats and data
// rounds, and the replication rate reflects the combined total.
func TestRunStarSampledHonestAccounting(t *testing.T) {
	const m, p = 400, 4
	db := fullySkewedStar(2, m)
	q := query.Star(2)

	res := runStarSampled(q, db, p, 3, m)
	oracle := runStar(q, db, p, 3)

	if res.Rounds != oracle.Rounds+1 {
		t.Errorf("rounds=%d want %d (stats + data)", res.Rounds, oracle.Rounds+1)
	}
	// The sampled statistics are exact here (exhaustive sampling), so the
	// data round matches the oracle run and the deltas isolate the stats
	// round's contribution.
	if !data.Equal(res.Output, oracle.Output) {
		t.Fatal("exhaustive sampling must reproduce the oracle output")
	}
	statsBits := 2 * float64(p*2*statsBitsPerValue) // per-receiver, both atoms
	if want := oracle.TotalBits + statsBits*float64(p); res.TotalBits != want {
		t.Errorf("TotalBits=%v want %v (data %v + stats %v)",
			res.TotalBits, want, oracle.TotalBits, statsBits*float64(p))
	}
	if want := math.Max(oracle.MaxLoadBits, statsBits); res.MaxLoadBits != want {
		t.Errorf("MaxLoadBits=%v want %v (max over stats and data rounds)", res.MaxLoadBits, want)
	}
	if res.InputBits > 0 {
		if want := res.TotalBits / res.InputBits; res.ReplicationRate != want {
			t.Errorf("replication=%v want %v", res.ReplicationRate, want)
		}
	}
	if res.TotalBits < res.MaxLoadBits {
		t.Errorf("TotalBits %v below MaxLoadBits %v", res.TotalBits, res.MaxLoadBits)
	}
}

// TestRunStarSampledHeavyDetected: the corrected protocol still finds the
// planted heavy hitter and the algorithm stays correct under estimates.
func TestRunStarSampledHeavyDetected(t *testing.T) {
	const m, p = 400, 4
	db := fullySkewedStar(2, m)
	q := query.Star(2)
	res := runStarSampled(q, db, p, 3, m)
	if res.HeavyHitters != 1 {
		t.Errorf("heavy hitters=%d want 1 (z=7)", res.HeavyHitters)
	}
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Errorf("output %d tuples, want %d", res.Output.NumTuples(), want.NumTuples())
	}
}
