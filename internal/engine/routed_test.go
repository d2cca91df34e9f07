package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// localLink delivers through DeliverLocal, so a cluster takes the
// transport-attached (staged) streaming path without a network.
type localLink struct{}

func (localLink) Deliver(io *DeliveryRound) error {
	DeliverLocal(io)
	return nil
}

func (localLink) Close() error { return nil }

// routedScript emits, per round and server, a deterministic mix of routed
// blocks (several kinds and arities, skipped tuples, replicated subcubes)
// and single tuples of other kinds in between, so pending chunks change
// kind at a destination's first routed tuple. perTuple expands every
// routed block into the EmitTuple calls EmitRouted must be equivalent to.
func routedScript(c *Cluster, p, nRounds int, perTuple bool) (transcript string) {
	for r := 0; r < nRounds; r++ {
		st := c.Round("routed", func(s int, _ *Inbox, emit *Emitter) {
			rng := rand.New(rand.NewSource(int64(r*100 + s)))
			for blk := 0; blk < 6; blk++ {
				kind, arity := rng.Intn(3), 1+rng.Intn(3)
				n := rng.Intn(40)
				vals := make([]int64, n*arity)
				for i := range vals {
					vals[i] = int64(s*1000 + blk*100 + i)
				}
				offsets := [][]int{{0}, {0, 1}, {0, 2, 1}}[rng.Intn(3)]
				bases := make([]int, n)
				for i := range bases {
					bases[i] = rng.Intn(p - 2)
					if rng.Intn(5) == 0 {
						bases[i] = -1
					}
				}
				if perTuple {
					for i, base := range bases {
						if base < 0 {
							continue
						}
						for _, off := range offsets {
							emit.EmitTuple(base+off, kind, vals[i*arity:(i+1)*arity])
						}
					}
				} else {
					emit.EmitRouted(kind, arity, vals, bases, offsets)
				}
				emit.EmitTuple(rng.Intn(p), 3, []int64{int64(s), int64(blk)})
			}
		})
		transcript += fmt.Sprintf("round %d: %+v\n", r, st)
		for s, e := range c.emitters {
			transcript += fmt.Sprintf("  sender %d: %d flushes;", s, e.flushes)
			e.EachPending(func(dest, kind, arity int, vals []int64) {
				transcript += fmt.Sprintf(" %d/k%d/a%d/%d", dest, kind, arity, len(vals))
			})
			transcript += "\n"
		}
	}
	for s := 0; s < p; s++ {
		transcript += fmt.Sprintf("inbox %d: %s\n", s, inboxSnapshot(c.Inbox(s)))
	}
	return transcript
}

// TestEmitRoutedMatchesPerTuple pins EmitRouted's contract: in barrier,
// pipelined and staged rounds, a routed block leaves exactly what emitting
// its tuples one by one leaves — inbox contents and order, round stats,
// chunk flushes, the pending batches a transport would frame, and the
// buffered-memory high-water.
func TestEmitRoutedMatchesPerTuple(t *testing.T) {
	const p, nRounds = 7, 3
	modes := []struct {
		name   string
		chunk  int
		staged bool
	}{
		{"barrier", 0, false},
		{"pipelined-1", 1, false}, {"pipelined-3", 3, false}, {"pipelined-7", 7, false},
		{"pipelined-large", 1 << 20, false},
		{"staged-3", 3, true}, {"staged-7", 7, true},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			run := func(perTuple bool) (string, int64) {
				c := NewCluster(p, 10)
				defer c.Release()
				c.SetStreamChunk(m.chunk)
				if m.staged {
					c.link = localLink{}
				}
				c.mem = &MemGauge{}
				return routedScript(c, p, nRounds, perTuple), c.mem.Peak()
			}
			want, wantPeak := run(true)
			got, gotPeak := run(false)
			if got != want {
				t.Errorf("routed transcript diverged from per-tuple emission\n got:\n%s\nwant:\n%s", got, want)
			}
			if gotPeak != wantPeak {
				t.Errorf("peak buffered bytes = %d, per-tuple emission %d", gotPeak, wantPeak)
			}
		})
	}
}

// TestEmitRoutedValidation checks the boundary panics: a block that does
// not hold one tuple per base, and a destination outside the cluster.
func TestEmitRoutedValidation(t *testing.T) {
	for _, chunk := range []int{0, 4} {
		c := NewCluster(2, 8)
		c.SetStreamChunk(chunk)
		mustPanic := func(name string, f func(e *Emitter)) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("chunk %d: %s did not panic", chunk, name)
				}
			}()
			c.Round("bad", func(s int, _ *Inbox, emit *Emitter) {
				if s == 0 {
					f(emit)
				}
			})
		}
		mustPanic("short block", func(e *Emitter) { e.EmitRouted(0, 2, []int64{1, 2, 3}, []int{0, 0}, []int{0}) })
		mustPanic("zero arity", func(e *Emitter) { e.EmitRouted(0, 0, nil, nil, []int{0}) })
		mustPanic("destination out of range", func(e *Emitter) { e.EmitRouted(0, 1, []int64{5}, []int{1}, []int{0, 1}) })
		c.Release()
	}
}
