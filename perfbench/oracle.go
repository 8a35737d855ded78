package main

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"

	"cfpq"
	"cfpq/internal/graph"
	"cfpq/internal/server"
)

// denseMaxNodes is the largest graph the reference evaluation runs on the
// dense backend; larger graphs use sparse-parallel. Either way the reference
// comes from another backend than the served default (sparse).
const denseMaxNodes = 3000

func referenceBackend(nodes int) cfpq.Backend {
	if nodes <= denseMaxNodes {
		return cfpq.Dense
	}
	return cfpq.SparseParallel(0)
}

// parseInput reads a graph document the way cfpqd's loader does, so node
// ids match the served graph's.
func parseInput(in graphInput) (*graph.Graph, map[string]int, error) {
	switch in.format {
	case "edgelist":
		return graph.LoadEdgeList(bytes.NewReader(in.doc))
	case "ntriples":
		return graph.LoadNTriples(bytes.NewReader(in.doc))
	default:
		return nil, nil, fmt.Errorf("unknown format %q", in.format)
	}
}

// referencePairs evaluates R_S of text on g from scratch on the reference
// backend.
func referencePairs(ctx context.Context, g *graph.Graph, text string) ([]cfpq.Pair, error) {
	gram, err := cfpq.ParseGrammar(text)
	if err != nil {
		return nil, err
	}
	res, err := cfpq.NewEngine(referenceBackend(g.Nodes())).Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S"})
	if err != nil {
		return nil, fmt.Errorf("reference evaluation: %w", err)
	}
	return res.AllPairs(), nil
}

// referenceExprCounts evaluates an RPQ expression from scratch on the
// reference backend and returns the number of pairs leaving each node.
func referenceExprCounts(ctx context.Context, g *graph.Graph, expr string) ([]int, error) {
	res, err := cfpq.NewEngine(referenceBackend(g.Nodes())).Do(ctx, cfpq.Request{Graph: g, Expr: expr})
	if err != nil {
		return nil, fmt.Errorf("reference RPQ evaluation: %w", err)
	}
	counts := make([]int, g.Nodes())
	for _, p := range res.AllPairs() {
		counts[p.I]++
	}
	return counts, nil
}

// oracle is a reference relation R_S over one graph's node names.
type oracle struct {
	names  []string       // node id → name
	ids    map[string]int // name → node id
	rows   [][]int32      // sorted targets of each source
	start  []int          // rank of each row's first pair in row-major order
	count  int
	active []int // sources with at least one pair
}

func newOracle(nodes int, ids map[string]int, pairs []cfpq.Pair) *oracle {
	o := &oracle{names: graph.NodeNames(nodes, ids), ids: ids, rows: make([][]int32, nodes), start: make([]int, nodes+1)}
	for i := range o.names {
		if o.names[i] == "" {
			o.names[i] = fmt.Sprint(i)
		}
	}
	for _, p := range pairs {
		o.rows[p.I] = append(o.rows[p.I], int32(p.J))
	}
	for i, row := range o.rows {
		slices.Sort(row)
		o.rows[i] = slices.Compact(row)
		o.start[i+1] = o.start[i] + len(o.rows[i])
		if len(o.rows[i]) > 0 {
			o.active = append(o.active, i)
		}
	}
	o.count = o.start[nodes]
	return o
}

// rank returns the position of (i, j) in the row-major order of the
// relation, or -1 when the pair is absent.
func (o *oracle) rank(i, j int) int {
	if i < 0 || i >= len(o.rows) {
		return -1
	}
	row := o.rows[i]
	k := sort.Search(len(row), func(x int) bool { return int(row[x]) >= j })
	if k < len(row) && int(row[k]) == j {
		return o.start[i] + k
	}
	return -1
}

func (o *oracle) has(i, j int) bool { return o.rank(i, j) >= 0 }

func (o *oracle) id(name string) (int, error) {
	id, ok := o.ids[name]
	if !ok {
		return 0, fmt.Errorf("answer names unknown node %q", name)
	}
	return id, nil
}

// bounds checks answers against a relation that may grow while they are
// read: every answer must contain lo and lie within hi. With lo == hi the
// checks are exact. Node names resolve through hi.
type bounds struct {
	lo, hi *oracle
}

func exact(o *oracle) bounds { return bounds{o, o} }

func (b bounds) checkExists(from, to string, got bool) error {
	i, err := b.hi.id(from)
	if err != nil {
		return err
	}
	j, err := b.hi.id(to)
	if err != nil {
		return err
	}
	if got && !b.hi.has(i, j) {
		return fmt.Errorf("exists(%s, %s) = true, reference says false", from, to)
	}
	if !got && b.lo.has(i, j) {
		return fmt.Errorf("exists(%s, %s) = false, reference says true", from, to)
	}
	return nil
}

func (b bounds) checkCount(got int) error {
	if got < b.lo.count || got > b.hi.count {
		if b.lo == b.hi {
			return fmt.Errorf("count = %d, reference says %d", got, b.lo.count)
		}
		return fmt.Errorf("count = %d, reference says between %d and %d", got, b.lo.count, b.hi.count)
	}
	return nil
}

// checkPairsFrom checks the pairs leaving one source.
func (b bounds) checkPairsFrom(src string, got []server.NamedPair) error {
	i, err := b.hi.id(src)
	if err != nil {
		return err
	}
	js := make([]int, 0, len(got))
	for _, p := range got {
		if p.From != src {
			return fmt.Errorf("pairs from %s: answer holds pair (%s, %s)", src, p.From, p.To)
		}
		j, err := b.hi.id(p.To)
		if err != nil {
			return err
		}
		if !b.hi.has(i, j) {
			return fmt.Errorf("pairs from %s: (%s, %s) is not in the reference", src, p.From, p.To)
		}
		js = append(js, j)
	}
	slices.Sort(js)
	if len(slices.Compact(js)) != len(got) {
		return fmt.Errorf("pairs from %s: duplicate pairs", src)
	}
	for _, j := range b.lo.rows[i] {
		if _, found := slices.BinarySearch(js, int(j)); !found {
			return fmt.Errorf("pairs from %s: answer lacks (%s, %s)", src, src, b.lo.names[j])
		}
	}
	return nil
}

// checkPaged checks a limited pairs answer: exactly the first limit pairs
// of the relation in row-major order, with truncated set when more exist.
// Only exact bounds have a defined first page.
func (b bounds) checkPaged(limit int, got []server.NamedPair, truncated bool) error {
	o := b.hi
	if b.lo != b.hi {
		return fmt.Errorf("paged pairs need an exact reference")
	}
	want := min(limit, o.count)
	if len(got) != want {
		return fmt.Errorf("page of %d pairs, reference says %d", len(got), want)
	}
	if truncated != (o.count > limit) {
		return fmt.Errorf("page truncated = %v, reference has %d pairs for limit %d", truncated, o.count, limit)
	}
	for k, p := range got {
		i, err := o.id(p.From)
		if err != nil {
			return err
		}
		j, err := o.id(p.To)
		if err != nil {
			return err
		}
		if o.rank(i, j) != k {
			return fmt.Errorf("page position %d holds (%s, %s), not the reference's pair at that rank", k, p.From, p.To)
		}
	}
	return nil
}

// checkDump checks a whole-relation answer for set equality (lo ⊆ got ⊆ hi,
// no duplicates).
func (b bounds) checkDump(got []server.NamedPair) error {
	seen := make([]uint64, (b.hi.count+63)/64)
	for _, p := range got {
		i, err := b.hi.id(p.From)
		if err != nil {
			return err
		}
		j, err := b.hi.id(p.To)
		if err != nil {
			return err
		}
		r := b.hi.rank(i, j)
		if r < 0 {
			return fmt.Errorf("dump holds (%s, %s), which is not in the reference", p.From, p.To)
		}
		if seen[r/64]&(1<<(r%64)) != 0 {
			return fmt.Errorf("dump holds (%s, %s) twice", p.From, p.To)
		}
		seen[r/64] |= 1 << (r % 64)
	}
	if b.lo == b.hi {
		if len(got) != b.hi.count {
			return fmt.Errorf("dump of %d pairs, reference has %d", len(got), b.hi.count)
		}
		return nil
	}
	for i, row := range b.lo.rows {
		for _, j := range row {
			if r := b.hi.rank(i, int(j)); seen[r/64]&(1<<(r%64)) == 0 {
				return fmt.Errorf("dump lacks (%s, %s)", b.lo.names[i], b.lo.names[j])
			}
		}
	}
	return nil
}

// exprBounds bounds the per-source counts of an RPQ relation that may grow
// while it is read.
type exprBounds struct {
	ids    map[string]int
	lo, hi []int
}

func (e exprBounds) checkCountFrom(src string, got int) error {
	i, ok := e.ids[src]
	if !ok {
		return fmt.Errorf("expr source %q is unknown", src)
	}
	if got < e.lo[i] || got > e.hi[i] {
		return fmt.Errorf("expr count from %s = %d, reference says between %d and %d", src, got, e.lo[i], e.hi[i])
	}
	return nil
}
