// Package localjoin evaluates full conjunctive queries on a single server —
// the computation phase of an MPC round. The MPC model places no limit on
// local computation, but wall-clock does: the evaluator here is a columnar
// hash-join kernel (open-addressed int64-keyed indexes, a struct-of-arrays
// binding arena, per-worker reusable scratch) that allocates nothing on the
// steady-state path beyond its output, with a round-scoped IndexCache that
// shares index builds across servers holding identical routed fragments.
// The pre-kernel evaluator is preserved verbatim in the baseline subpackage
// for equivalence testing and ablation; the kernel reproduces its output
// tuple-for-tuple, in order.
package localjoin

import (
	"errors"
	"fmt"
	"sync/atomic"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// ErrMissingRelation is the sentinel wrapped by MissingRelationError; test
// with errors.Is. The Run boundary in the root package converts it into its
// public ErrMissingRelation.
var ErrMissingRelation = errors.New("localjoin: missing relation")

// MissingRelationError reports that evaluation referenced an atom with no
// relation supplied. Evaluate and EvaluateAtoms — whose callers pre-validate
// inputs — panic with it, and the Run error boundary converts the panic
// into an ordinary error instead of letting it cross the public API.
type MissingRelationError struct {
	Atom string
}

func (e *MissingRelationError) Error() string {
	return fmt.Sprintf("localjoin: missing relation %q", e.Atom)
}

// Unwrap makes errors.Is(err, ErrMissingRelation) hold.
func (e *MissingRelationError) Unwrap() error { return ErrMissingRelation }

// baselineMode routes every kernel entry point to the baseline evaluator —
// the test hook that lets the strategy-equivalence suite run entire
// strategies on both implementations and compare Report fingerprints.
var baselineMode atomic.Bool

// SetBaselineForTest switches evaluation to the frozen baseline evaluator
// (true) or back to the kernel (false). It exists for equivalence tests
// only; flipping it while evaluations are in flight is safe (the flag is
// atomic) but makes which evaluator ran unpredictable per call.
func SetBaselineForTest(on bool) { baselineMode.Store(on) }

// Evaluate computes q over the given relations (one per atom name) and
// returns the full result, one column per variable in q.Vars() order.
// Duplicate output tuples are produced if the inputs are bags. Inputs are
// assumed validated (every atom present); a missing relation panics with
// *MissingRelationError.
func Evaluate(q *query.Query, rels map[string]*data.Relation) *data.Relation {
	s := GrabScratch()
	defer s.Release()
	return s.Evaluate(q, rels)
}
