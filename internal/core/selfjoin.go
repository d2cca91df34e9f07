package core

import (
	"fmt"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

// The paper restricts to queries without self-joins and notes (footnote 2)
// that this is without loss of generality: repeated occurrences of a
// relation are renamed apart and the relation is logically copied, at the
// cost of an ℓ-times-larger input in the worst case. This file makes that
// reduction practical: DesugarSelfJoins renames the atoms, and
// RunWithSelfJoins executes the renamed query against views of the shared
// relations (no physical copying).

// DesugarSelfJoins renames repeated relation occurrences apart
// (E, E#2, E#3, …) and returns the resulting self-join-free query together
// with the mapping from new atom names to the original relation names.
func DesugarSelfJoins(name string, atoms []query.Atom) (*query.Query, map[string]string) {
	counts := make(map[string]int)
	mapping := make(map[string]string, len(atoms))
	renamed := make([]query.Atom, len(atoms))
	for i, a := range atoms {
		counts[a.Name]++
		newName := a.Name
		if counts[a.Name] > 1 {
			newName = fmt.Sprintf("%s#%d", a.Name, counts[a.Name])
		}
		mapping[newName] = a.Name
		renamed[i] = query.Atom{Name: newName, Vars: append([]string(nil), a.Vars...)}
	}
	return query.New(name, renamed...), mapping
}

// RunWithSelfJoins evaluates a conjunctive query that may repeat relation
// names (e.g. length-2 paths E(x,y), E(y,z) over one edge relation) with
// the one-round HyperCube algorithm, under env: atoms are renamed apart and
// each copy reads the shared relation through a renamed view.
func RunWithSelfJoins(name string, atoms []query.Atom, db *data.Database, p int, seed int64, mode Mode, env engine.Env) *Result {
	q, mapping := DesugarSelfJoins(name, atoms)
	view := data.NewDatabase(db.N)
	for newName, orig := range mapping {
		rel := db.Get(orig)
		if rel.Name != newName {
			r := rel.Clone()
			r.Name = newName
			rel = r
		}
		view.Add(rel)
	}
	return RunPlan(PlanForDatabase(q, view, p, mode), view, seed, nil, env)
}

// SequentialAnswerWithSelfJoins is the single-node ground truth for
// RunWithSelfJoins.
func SequentialAnswerWithSelfJoins(name string, atoms []query.Atom, db *data.Database) *data.Relation {
	q, mapping := DesugarSelfJoins(name, atoms)
	rels := make(map[string]*data.Relation, len(mapping))
	for newName, orig := range mapping {
		rel := db.Get(orig)
		if rel.Name != newName {
			r := rel.Clone()
			r.Name = newName
			rel = r
		}
		rels[newName] = rel
	}
	return SequentialAnswer(q, &data.Database{N: db.N, Relations: rels})
}
