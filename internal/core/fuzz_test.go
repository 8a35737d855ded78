// Native fuzz target for the headline correctness property. Gated on the
// go1.18 release tag (when native fuzzing landed) so the file drops out
// cleanly on older toolchains.
//
// Run with:
//
//	go test -fuzz=FuzzClosureAgreement -fuzztime=30s ./internal/core
//
// Under plain `go test` only the seed corpus below runs.

//go:build go1.18

package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cfpq/internal/baseline"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/matrix"
)

// FuzzClosureAgreement derives a random graph and a random CNF grammar
// from the fuzzed seed and checks, on all four matrix backends, that every
// closure schedule agrees with the Hellings worklist oracle: the in-place,
// naive and semi-naive closures compute exactly its relations; the
// source-restricted closure, from the sources the fuzzed mask selects,
// computes exactly its source rows; and the incremental update path
// (closing a partial graph, then feeding the rest through Update) reaches
// the same fixpoint as the cold closure.
func FuzzClosureAgreement(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(12), uint8(10), uint16(0x1))
	f.Add(int64(42), uint8(9), uint8(30), uint8(14), uint16(0x5a))
	f.Add(int64(7), uint8(2), uint8(3), uint8(6), uint16(0xffff))
	f.Add(int64(3), uint8(11), uint8(25), uint8(9), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes, edges, prods uint8, sourceMask uint16) {
		n := 2 + int(nodes)%12
		e := int(edges) % 40
		np := 1 + int(prods)%16
		rng := rand.New(rand.NewSource(seed))
		gram := grammar.RandomGrammar(rng, grammar.RandomConfig{
			Nonterminals: 1 + np/4,
			Terminals:    1 + np%3,
			Productions:  np,
			MaxBody:      3,
			EpsilonProb:  0.1,
		})
		cnf, err := grammar.ToCNF(gram)
		if err != nil {
			t.Fatalf("ToCNF of a generated grammar: %v\n%s", err, gram)
		}
		if cnf.NonterminalCount() == 0 {
			t.Skip("grammar normalises to nothing")
		}
		terms := gram.Terminals()
		if len(terms) == 0 {
			t.Skip("no terminals")
		}
		g := graph.Random(rng, n, e, terms)
		oracle := baseline.Hellings(g, cnf)
		sources := []int{}
		inSources := make([]bool, n)
		for v := 0; v < n; v++ {
			if sourceMask&(1<<v) != 0 {
				sources = append(sources, v)
				inSources[v] = true
			}
		}
		// agree checks ix against the oracle, on the rows keep selects.
		agree := func(mode string, be matrix.Backend, ix *Index, keep func(row int) bool) {
			t.Helper()
			for a := 0; a < cnf.NonterminalCount(); a++ {
				nt := cnf.Names[a]
				var got, want []matrix.Pair
				for _, p := range ix.Relation(nt) {
					if keep(p.I) {
						got = append(got, p)
					}
				}
				for _, p := range oracle[nt] {
					if keep(p.I) {
						want = append(want, p)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s: R_%s = %v, want %v\ngrammar:\n%s", mode, be.Name(), nt, got, want, gram)
				}
			}
		}
		allRows := func(int) bool { return true }
		ctx := context.Background()
		for _, be := range matrix.Backends() {
			for mode, opts := range map[string][]Option{
				"in-place": nil,
				"naive":    {WithNaiveIteration()},
				"delta":    {WithDeltaIteration()},
			} {
				ix, _, err := NewEngine(append(opts, WithBackend(be))...).RunContext(ctx, g, cnf)
				if err != nil {
					t.Fatal(err)
				}
				agree(mode, be, ix, allRows)
			}
			ix, _, err := NewEngine(WithBackend(be)).RunFromContext(ctx, g, cnf, sources)
			if err != nil {
				t.Fatal(err)
			}
			agree(fmt.Sprintf("frontier from %v", sources), be, ix, func(row int) bool { return inSources[row] })
		}
		// Incremental path: close the graph minus its last edge, patch the
		// edge back in, compare against the full closure.
		all := g.Edges()
		if len(all) == 0 {
			return
		}
		partial := graph.New(g.Nodes())
		for _, ed := range all[:len(all)-1] {
			partial.AddEdge(ed.From, ed.Label, ed.To)
		}
		for _, be := range matrix.Backends() {
			eng := NewEngine(WithBackend(be))
			ix, _ := eng.Run(partial, cnf)
			if _, _, err := eng.UpdateContext(ctx, ix, all[len(all)-1]); err != nil {
				t.Fatal(err)
			}
			agree("update", be, ix, allRows)
		}
	})
}
