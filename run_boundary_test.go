package mpcquery

import (
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
	cases := []struct {
		name string
		opts []RunOption
	}{
		{"zero servers", []RunOption{WithServers(0)}},
		{"negative stream chunk", []RunOption{WithStreaming(true), WithStreamChunk(-5)}},
		{"negative stream chunk without streaming", []RunOption{WithStreamChunk(-1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Run(q, db, tc.opts...)
			if err == nil || rep != nil {
				t.Fatalf("Run = (%v, %v), want an error and no report", rep, err)
			}
		})
	}
}
