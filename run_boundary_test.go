package mpcquery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mpcquery/internal/localjoin"
	"mpcquery/internal/transport"
)

// panickingStrategy panics with val from Execute, exercising Run's recover
// boundary with an arbitrary panic value class.
type panickingStrategy struct {
	name string
	val  any
}

func (s *panickingStrategy) Name() string { return s.name }

func (s *panickingStrategy) Execute(ExecContext) (*Report, error) { panic(s.val) }

// TestRunRecoverBoundary injects each panic value class panicdiscipline
// distinguishes through a faulting strategy and checks the rewrap contract:
// wrapped kernel/transport sentinels keep their errors.Is identity, and
// everything else becomes a *StrategyError carrying the original value.
func TestRunRecoverBoundary(t *testing.T) {
	q := Triangle()
	rng := rand.New(rand.NewSource(1))
	db := MatchingDatabase(rng, q, 100, 1<<20)

	cases := []struct {
		name  string
		val   any
		check func(t *testing.T, err error)
	}{
		{
			name: "wrapped kernel sentinel keeps ErrMissingRelation",
			val:  &localjoin.MissingRelationError{Atom: "R"},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrMissingRelation) {
					t.Fatalf("errors.Is(err, ErrMissingRelation) = false for %v", err)
				}
				var se *StrategyError
				if errors.As(err, &se) {
					t.Fatalf("kernel sentinel leaked as StrategyError: %v", err)
				}
			},
		},
		{
			name: "fmt-wrapped kernel sentinel keeps ErrMissingRelation",
			val:  fmt.Errorf("localjoin: atom %q: %w", "R", localjoin.ErrMissingRelation),
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrMissingRelation) {
					t.Fatalf("errors.Is(err, ErrMissingRelation) = false for %v", err)
				}
			},
		},
		{
			name: "wrapped transport sentinel keeps ErrPeerUnavailable",
			val:  fmt.Errorf("transport: rank 2: %w", transport.ErrPeerUnavailable),
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrPeerUnavailable) {
					t.Fatalf("errors.Is(err, ErrPeerUnavailable) = false for %v", err)
				}
			},
		},
		{
			name: "wrapped session-closed sentinel keeps ErrRuntimeClosed",
			val:  fmt.Errorf("transport: round aborted: %w", transport.ErrSessionClosed),
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrRuntimeClosed) {
					t.Fatalf("errors.Is(err, ErrRuntimeClosed) = false for %v", err)
				}
			},
		},
		{
			name: "string panic becomes StrategyError with the string",
			val:  "boom",
			check: func(t *testing.T, err error) {
				var se *StrategyError
				if !errors.As(err, &se) {
					t.Fatalf("err = %v (%T), want *StrategyError", err, err)
				}
				if se.Value != "boom" || se.Strategy != "faulting" {
					t.Fatalf("StrategyError = %+v, want Value \"boom\" Strategy \"faulting\"", se)
				}
			},
		},
		{
			name: "non-error non-string panic becomes StrategyError with the value",
			val:  42,
			check: func(t *testing.T, err error) {
				var se *StrategyError
				if !errors.As(err, &se) {
					t.Fatalf("err = %v (%T), want *StrategyError", err, err)
				}
				if se.Value != 42 {
					t.Fatalf("StrategyError.Value = %v, want 42", se.Value)
				}
			},
		},
		{
			name: "unrelated error panic becomes StrategyError, not a sentinel",
			val:  errors.New("some subsystem exploded"),
			check: func(t *testing.T, err error) {
				var se *StrategyError
				if !errors.As(err, &se) {
					t.Fatalf("err = %v (%T), want *StrategyError", err, err)
				}
				if errors.Is(err, ErrMissingRelation) || errors.Is(err, ErrPeerUnavailable) {
					t.Fatalf("unrelated error matched a sentinel: %v", err)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(q, db, WithStrategy(&panickingStrategy{name: "faulting", val: tc.val}))
			if rep != nil {
				t.Fatalf("rep = %v, want nil after a strategy panic", rep)
			}
			if err == nil {
				t.Fatal("err = nil, want the rewrapped panic")
			}
			tc.check(t, err)
		})
	}
}

// TestRunRejectsInvalidConfig checks that malformed run options fail at the
// Run boundary with an error, before any strategy executes.
func TestRunRejectsInvalidConfig(t *testing.T) {
	q := Triangle()
	db := MatchingDatabase(rand.New(rand.NewSource(2)), q, 50, 1<<10)
	// chain2 builds Chain(2)'s relations over a domain of n, one tuple each.
	chain2 := func(n int64, s1, s2 []int64) *Database {
		d := NewDatabase(n)
		r1, r2 := NewRelation("S1", 2), NewRelation("S2", 2)
		r1.AppendTuple(s1)
		r2.AppendTuple(s2)
		d.Add(r1)
		d.Add(r2)
		return d
	}
	cases := []struct {
		name string
		q    *Query
		db   *Database
		opts []RunOption
		want error // nil: any error
	}{
		{"zero servers", q, db, []RunOption{WithServers(0)}, nil},
		{"negative stream chunk", q, db, []RunOption{WithStreaming(true), WithStreamChunk(-5)}, nil},
		{"negative stream chunk without streaming", q, db, []RunOption{WithStreamChunk(-1)}, nil},
		// Values outside [0, N) would be billed at ⌈log₂ N⌉ bits each.
		{"values outside the domain", Chain(2), chain2(16, []int64{1 << 40, 3}, []int64{3, -7}), nil, ErrDomain},
		{"value above the domain", Chain(2), chain2(16, []int64{16, 3}, []int64{3, 7}), nil, ErrDomain},
		{"negative value", Chain(2), chain2(16, []int64{1, 3}, []int64{3, -1}), nil, ErrDomain},
		{"empty domain", Chain(2), chain2(0, []int64{0, 0}, []int64{0, 0}), nil, ErrDomain},
		{"values outside the domain, self-join", nil, chain2(16, []int64{1, 3}, []int64{3, 99}),
			[]RunOption{WithStrategy(SelfJoin("p", Atom{Name: "S2", Vars: []string{"x", "y"}}, Atom{Name: "S2", Vars: []string{"y", "z"}}))}, ErrDomain},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(tc.q, tc.db, tc.opts...)
			if err == nil || rep != nil {
				t.Fatalf("Run = (%v, %v), want an error and no report", rep, err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("Run error %v, want errors.Is %v", err, tc.want)
			}
		})
	}
	t.Run("domain edge accepted", func(t *testing.T) {
		rep, err := Run(Chain(2), chain2(16, []int64{0, 15}, []int64{15, 15}))
		if err != nil || rep.Output.NumTuples() != 1 {
			t.Fatalf("Run = (%v, %v), want one output row", rep, err)
		}
	})
	t.Run("service", func(t *testing.T) {
		svc := NewService()
		defer svc.Close()
		_, err := svc.Run(context.Background(), Chain(2), chain2(16, []int64{1 << 40, 3}, []int64{3, -7}))
		if !errors.Is(err, ErrDomain) {
			t.Fatalf("Service.Run error %v, want ErrDomain", err)
		}
	})
}
