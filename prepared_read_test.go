package cfpq_test

// Tests of the cached-read scan behind Prepared.Do: a restricted read must
// equal filtering the unrestricted relation, whatever shape the restriction
// takes, and a source-restricted read must cost the rows it visits rather
// than the graph's node count.

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cfpq"
	"cfpq/internal/grammar"
	"cfpq/internal/graph"
)

// randomRestriction draws a restriction over n nodes in one of the shapes a
// caller may send: nil, empty, or unsorted with duplicates and ids past the
// node range.
func randomRestriction(rng *rand.Rand, n int) []int {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	k := 1 + rng.Intn(n)
	nodes := rng.Perm(n)[:k]
	for d := rng.Intn(3); d > 0; d-- {
		nodes = append(nodes, nodes[rng.Intn(len(nodes))])
	}
	for o := rng.Intn(3); o > 0; o-- {
		nodes = append(nodes, n+rng.Intn(5))
	}
	rng.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
	return nodes
}

// memberSet is a restriction's membership test; nil admits everything.
func memberSet(nodes []int) func(int) bool {
	if nodes == nil {
		return func(int) bool { return true }
	}
	set := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		set[v] = true
	}
	return func(v int) bool { return set[v] }
}

// TestPreparedRestrictedReadsEqualFilteredProperty checks, on random
// grammars and graphs and on every backend, that Prepared.Do's pairs,
// count and exists outputs under a source and/or target restriction equal
// the unrestricted relation filtered in row-major order, with the same
// limit clipping and Truncated flag.
func TestPreparedRestrictedReadsEqualFilteredProperty(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(45))
	cfg := grammar.DefaultRandomConfig()
	trials, reads := 10, 12
	if testing.Short() {
		trials = 4
	}
	for _, be := range cfpq.Backends() {
		eng := cfpq.NewEngine(be)
		for trial := 0; trial < trials; trial++ {
			gram := grammar.RandomGrammar(rng, cfg)
			nts := gram.Nonterminals()
			start := nts[rng.Intn(len(nts))]
			labels := gram.Terminals()
			if len(labels) == 0 {
				continue // ε-only grammar: no edges to build
			}
			n := 4 + rng.Intn(16)
			g := graph.Random(rng, n, 2+rng.Intn(3*n), labels)
			p, err := eng.Prepare(ctx, g, gram)
			if err != nil {
				continue // a grammar the CNF conversion rejects
			}
			full, err := p.Do(ctx, cfpq.Request{Nonterminal: start})
			if err != nil {
				continue // the start symbol did not survive the CNF conversion
			}
			if !slices.IsSortedFunc(full.AllPairs(), func(a, b cfpq.Pair) int {
				if a.I != b.I {
					return a.I - b.I
				}
				return a.J - b.J
			}) {
				t.Fatalf("%s trial %d: unrestricted pairs not in row-major order: %v", be, trial, full.AllPairs())
			}
			for r := 0; r < reads; r++ {
				sources := randomRestriction(rng, n)
				targets := randomRestriction(rng, n)
				if rng.Intn(2) == 0 {
					targets = nil
				}
				inSrc, inTgt := memberSet(sources), memberSet(targets)
				var want []cfpq.Pair
				for _, pr := range full.AllPairs() {
					if inSrc(pr.I) && inTgt(pr.J) {
						want = append(want, pr)
					}
				}
				limit := []int{0, 1, 1 + rng.Intn(len(want)+2)}[rng.Intn(3)]
				req := cfpq.Request{Nonterminal: start, Sources: sources, Targets: targets, Limit: limit}
				got, err := p.Do(ctx, req)
				if err != nil {
					t.Fatalf("%s trial %d: pairs %+v: %v", be, trial, req, err)
				}
				wantPairs, wantTrunc := want, false
				if limit > 0 && len(want) > limit {
					wantPairs, wantTrunc = want[:limit], true
				}
				if !slices.Equal(got.AllPairs(), wantPairs) || got.Count != len(wantPairs) || got.Truncated != wantTrunc {
					t.Fatalf("%s trial %d sources=%v targets=%v limit=%d:\n got %v (count %d, truncated %v)\nwant %v (truncated %v)\ngrammar:\n%s",
						be, trial, sources, targets, limit, got.AllPairs(), got.Count, got.Truncated, wantPairs, wantTrunc, gram)
				}

				req.Limit, req.Output = 0, cfpq.OutputCount
				count, err := p.Do(ctx, req)
				if err != nil {
					t.Fatalf("%s trial %d: count %+v: %v", be, trial, req, err)
				}
				if count.Count != len(want) {
					t.Fatalf("%s trial %d sources=%v targets=%v: count %d, want %d", be, trial, sources, targets, count.Count, len(want))
				}

				req.Limit, req.Output = limit, cfpq.OutputExists
				ex, err := p.Do(ctx, req)
				if err != nil {
					t.Fatalf("%s trial %d: exists %+v: %v", be, trial, req, err)
				}
				if ex.Exists != (len(want) > 0) {
					t.Fatalf("%s trial %d sources=%v targets=%v: exists %v, want %v", be, trial, sources, targets, ex.Exists, len(want) > 0)
				}
			}
		}
	}
}

// TestPreparedSourcePairsAllocIndependentOfDimension pins that a
// single-source pairs read allocates for the row it returns, not for the
// graph's node count: the same Dyck chain answers with the same bytes when
// padded with isolated nodes from 10³ to 10⁵.
func TestPreparedSourcePairsAllocIndependentOfDimension(t *testing.T) {
	const slack = 256
	ctx := context.Background()
	for _, be := range []cfpq.Backend{cfpq.Sparse, cfpq.SparseParallel(2)} {
		measure := func(n int) uint64 {
			g := cfpq.NewGraph(n)
			for v, label := range []string{"a", "a", "b", "b"} {
				g.AddEdge(v, label, v+1)
			}
			p, err := cfpq.NewEngine(be).Prepare(ctx, g, cfpq.MustParseGrammar("S -> a S b | a b"))
			if err != nil {
				t.Fatal(err)
			}
			req := cfpq.Request{Nonterminal: "S", Sources: []int{0}}
			var res *cfpq.Result
			read := func() {
				if res, err = p.Do(ctx, req); err != nil {
					t.Fatal(err)
				}
			}
			bytes := bytesPerCall(read)
			if want := []cfpq.Pair{{I: 0, J: 4}}; !slices.Equal(res.AllPairs(), want) {
				t.Fatalf("%s n=%d: pairs from 0 = %v, want %v", be, n, res.AllPairs(), want)
			}
			return bytes
		}
		small, big := measure(1_000), measure(100_000)
		if big > small+slack {
			t.Errorf("%s: a single-source pairs read allocates %d B at n=10⁵ vs %d B at n=10³; the scan allocates per dimension", be, big, small)
		}
	}
}

// bytesPerCall reports the heap bytes one call of f allocates, averaged
// over 100 calls after one warm-up call.
func bytesPerCall(f func()) uint64 {
	const calls = 100
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / calls
}
