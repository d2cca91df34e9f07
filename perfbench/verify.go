package main

import (
	"errors"
	"fmt"
	"hash/fnv"

	"mpcquery"
	"mpcquery/internal/oracle"
)

// takeReference runs kind k once, plainly and in process, and records
// what every measured request of k must reproduce. A stream kind's
// reference is a streamed run reconciled against the materialized one.
func takeReference(k *kind) error {
	db := k.dbs[0]
	rep, err := mpcquery.Run(k.q, db, k.opts...)
	if err != nil {
		return err
	}
	if rep.Output == nil || rep.Output.NumTuples() == 0 {
		return errors.New("empty output: the workload exercises nothing")
	}
	k.refOut = rep.Output
	k.ref = reference{
		fingerprint: rep.Fingerprint(),
		totalBits:   rep.TotalBits,
		maxLoadBits: rep.MaxLoadBits,
	}
	if !k.stream {
		return nil
	}
	sink := &mpcquery.DigestSink{}
	srep, err := mpcquery.Run(k.q, db, with(k.opts, mpcquery.WithStreaming(true), mpcquery.WithOutputSink(sink))...)
	if err != nil {
		return fmt.Errorf("streamed run: %w", err)
	}
	if err := reconcile(sink, rep.Output); err != nil {
		return err
	}
	if srep.TotalBits != rep.TotalBits || srep.MaxLoadBits != rep.MaxLoadBits {
		return errors.New("streaming changed the communication cost")
	}
	k.ref.fingerprint = srep.Fingerprint()
	k.ref.digest = sink.Digest()
	return nil
}

// checkOracle checks every kind's reference output against the oracle,
// then drops the outputs.
func (in *instance) checkOracle(sample int) error {
	for _, k := range in.kinds {
		db, out := k.dbs[0], k.refOut
		k.refOut = nil
		if k.countBy != nil {
			want := oracle.Aggregate(k.q, db, "count", "", k.countBy)
			if !mpcquery.EqualRelations(want, out) {
				return fmt.Errorf("%s: aggregate differs from oracle: %d rows, oracle %d",
					k.name, out.NumTuples(), want.NumTuples())
			}
			continue
		}
		if err := oracleCheck(k.q, db, out, sample); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
	}
	return nil
}

// reconcile checks a streamed sink against the materialized output of the
// same run: the output stacks per-server results in ascending server
// order, so each server's slice refolds to that server's stream digest.
func reconcile(sink *mpcquery.DigestSink, out *mpcquery.Relation) error {
	vals, arity := out.Vals(), out.Arity
	off := 0
	for _, sd := range sink.PerServer() {
		if off+sd.Rows > out.NumTuples() {
			return fmt.Errorf("sink streamed more rows than the materialized output's %d", out.NumTuples())
		}
		one := &mpcquery.DigestSink{}
		one.Chunk(sd.Server, arity, vals[off*arity:(off+sd.Rows)*arity])
		if got := one.PerServer()[0].Digest; got != sd.Digest {
			return fmt.Errorf("server %d: streamed digest %x, materialized slice %x", sd.Server, sd.Digest, got)
		}
		off += sd.Rows
	}
	if off != out.NumTuples() {
		return fmt.Errorf("sink streamed %d rows, materialized output has %d", off, out.NumTuples())
	}
	return nil
}

// oracleCheck compares out, the answer to q on db, with oracle.Evaluate.
// The oracle is a nested-loop join, quadratic in the relation size, so on
// large inputs it runs on a slice of the answer: q's first atom keeps the
// tuples that hash into one of buckets ≈ m/sample buckets (every copy of a
// tuple lands in the same bucket), and out keeps the rows whose projection
// on that atom does. Bag semantics make the two slices equal exactly when
// out is right on that slice. With sample ≥ m the check is complete.
func oracleCheck(q *mpcquery.Query, db *mpcquery.Database, out *mpcquery.Relation, sample int) error {
	first := q.Atoms[0]
	rel := db.Relations[first.Name]
	buckets := uint64(1)
	if m := rel.NumTuples(); m > sample {
		buckets = uint64(m / sample)
	}
	keep := func(t []int64) bool { return buckets == 1 || tupleHash(t)%buckets == 0 }

	slice := mpcquery.NewRelation(first.Name, rel.Arity)
	for i := 0; i < rel.NumTuples(); i++ {
		if t := rel.Tuple(i); keep(t) {
			slice.AppendTuple(t)
		}
	}
	want := oracle.Evaluate(q, reduce(q, db, slice))

	cols := make([]int, len(first.Vars))
	for i, v := range first.Vars {
		cols[i] = q.VarIndex(v)
	}
	got := mpcquery.NewRelation(out.Name, out.Arity)
	proj := make([]int64, len(cols))
	for i := 0; i < out.NumTuples(); i++ {
		t := out.Tuple(i)
		for c, col := range cols {
			proj[c] = t[col]
		}
		if keep(proj) {
			got.AppendTuple(t)
		}
	}
	if !mpcquery.EqualRelations(want, got) {
		return fmt.Errorf("output differs from oracle on a slice of %d of %d %s tuples: %d rows, oracle %d",
			slice.NumTuples(), rel.NumTuples(), first.Name, got.NumTuples(), want.NumTuples())
	}
	return nil
}

// reduce returns db with q's first relation replaced by slice and every
// later atom's relation cut to the tuples whose values, on the variables
// of earlier atoms, occur in those atoms' cut relations. Every answer row
// that extends a slice tuple survives the cut, so the oracle's answer is
// unchanged; its scans just get shorter. A query that names one relation
// in two atoms is left uncut.
func reduce(q *mpcquery.Query, db *mpcquery.Database, slice *mpcquery.Relation) *mpcquery.Database {
	out := mpcquery.NewDatabase(db.N)
	for name, r := range db.Relations {
		out.Relations[name] = r
	}
	out.Relations[q.Atoms[0].Name] = slice
	names := map[string]bool{}
	for _, a := range q.Atoms {
		if names[a.Name] {
			return out
		}
		names[a.Name] = true
	}
	seen := map[string]map[int64]bool{}
	note := func(vars []string, r *mpcquery.Relation) {
		for c, v := range vars {
			if seen[v] != nil {
				continue
			}
			vals := map[int64]bool{}
			for i := 0; i < r.NumTuples(); i++ {
				vals[r.At(i, c)] = true
			}
			seen[v] = vals
		}
	}
	note(q.Atoms[0].Vars, slice)
	for _, a := range q.Atoms[1:] {
		rel := db.Relations[a.Name]
		cut := mpcquery.NewRelation(a.Name, rel.Arity)
		for i := 0; i < rel.NumTuples(); i++ {
			t := rel.Tuple(i)
			ok := true
			for c, v := range a.Vars {
				if vals := seen[v]; vals != nil && !vals[t[c]] {
					ok = false
					break
				}
			}
			if ok {
				cut.AppendTuple(t)
			}
		}
		out.Relations[a.Name] = cut
		note(a.Vars, cut)
	}
	return out
}

func tupleHash(t []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range t {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// verify checks one measured request against its kind's reference: every
// rank's report fingerprints as the reference, a streamed output digests
// as the reference, and on a worker group the ranks' charged wire bits
// add up to the report's total bits.
func (in *instance) verify(k *kind, out stepOut) error {
	if out.err != nil {
		return out.err
	}
	for r, rep := range out.reps {
		if fp := rep.Fingerprint(); fp != k.ref.fingerprint {
			return fmt.Errorf("rank %d: fingerprint %s, want %s", r, fp, k.ref.fingerprint)
		}
		if k.stream {
			if d := out.sinks[r].Digest(); d != k.ref.digest {
				return fmt.Errorf("rank %d: sink digest %x, want %x", r, d, k.ref.digest)
			}
		}
	}
	if out.wire != nil {
		var charged int64
		for _, w := range out.wire {
			charged += w.ChargedBits()
		}
		if float64(charged) != out.reps[0].TotalBits {
			return fmt.Errorf("ranks charged %d bits on the wire, report says %v", charged, out.reps[0].TotalBits)
		}
	}
	return nil
}
