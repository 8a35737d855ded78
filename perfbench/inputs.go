package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"cfpq/internal/dataset"
	"cfpq/internal/graph"
	"cfpq/internal/graphgen"
	"cfpq/internal/server"
)

// Grammar texts the workloads register. Query 1 is the paper's
// same-generation query (its Figure 10) over the ontology graphs.
const (
	dyckGrammar   = "S -> a S b | a b\n"
	query1Grammar = "S -> subClassOf_r S subClassOf\nS -> type_r S type\nS -> subClassOf_r subClassOf\nS -> type_r type\n"
)

// Sizes of the generated graphs.
const (
	chainNodes     = 10000
	chainDepth     = 512
	gridNodes      = 2500
	scaleFreeNodes = 10000
	scaleFreeSeed  = 1
)

// graphInput is one graph document and the grammar queried on it.
type graphInput struct {
	name    string // registry name of the graph
	kase    string // the input family: chain, grid, scalefree or ontology
	format  string // "edgelist" or "ntriples"
	doc     []byte
	grammar string // registry name of the grammar
	text    string // grammar text
	// labels are the edge labels random writes draw from; inverse makes a
	// write also add each edge's "_r" inverse, as the N-Triples loader does.
	labels  []string
	inverse bool
	// closedForm is |R_S| where the topology has a closed form, else -1.
	closedForm int
}

// edgeListDoc renders a generated graph as an edge list with node names
// "n<id>".
func edgeListDoc(g *graph.Graph) []byte {
	names := make([]string, g.Nodes())
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g, names); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

func generated(spec graphgen.Spec) *graph.Graph {
	g, err := graphgen.Generate(spec)
	if err != nil {
		panic(err) // the specs below are valid
	}
	return g
}

// chainInput is the word a^(n-1-d) b^d on a 10⁴-node chain: the closure runs
// d+1 passes over a matrix of dimension 10⁴, and R_S holds exactly the d
// pairs of the deepest match's nesting levels.
func chainInput() graphInput {
	g := generated(graphgen.Spec{Kind: graphgen.KindChain, Nodes: chainNodes, Depth: chainDepth})
	return graphInput{
		name: "chain", kase: "chain", format: "edgelist", doc: edgeListDoc(g),
		grammar: "dyck-chain", text: dyckGrammar, labels: []string{"a", "b"},
		closedForm: chainDepth,
	}
}

// gridInput is the k×k lattice (a right, b down): (r,c) reaches (r+m,c+m) by
// a^m b^m, so |R_S| = Σ_{m=1}^{k-1} (k-m)² = (k-1)k(2k-1)/6.
func gridInput() graphInput {
	g := generated(graphgen.Spec{Kind: graphgen.KindGrid, Nodes: gridNodes})
	k := 0
	for (k+1)*(k+1) <= gridNodes {
		k++
	}
	return graphInput{
		name: "grid", kase: "grid", format: "edgelist", doc: edgeListDoc(g),
		grammar: "dyck-grid", text: dyckGrammar, labels: []string{"a", "b"},
		closedForm: (k - 1) * k * (2*k - 1) / 6,
	}
}

// scaleFreeInput is a Barabási–Albert graph with labels a/b. Its generator
// seed is fixed: graphs drawn from different seeds differ in closure work
// and in the cost of RPQ frontiers, so runs with different --seed values
// would measure different work. --seed drives the op scripts instead.
func scaleFreeInput() graphInput {
	g := generated(graphgen.Spec{Kind: graphgen.KindScaleFree, Nodes: scaleFreeNodes, Seed: scaleFreeSeed})
	return graphInput{
		name: "scalefree", kase: "scalefree", format: "edgelist", doc: edgeListDoc(g),
		grammar: "dyck", text: dyckGrammar, labels: []string{"a", "b"},
		closedForm: -1,
	}
}

// ontologyInput is the paper's synthetic g3 (pizza ×8) as N-Triples.
func ontologyInput() graphInput {
	d, ok := dataset.ByName("g3")
	if !ok {
		panic("dataset g3 missing")
	}
	var buf bytes.Buffer
	if err := graph.WriteNTriples(&buf, d.TripleSet()); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return graphInput{
		name: "g3", kase: "ontology", format: "ntriples", doc: buf.Bytes(),
		grammar: "q1", text: query1Grammar, labels: []string{"subClassOf", "type"},
		inverse: true, closedForm: -1,
	}
}

// opKind is one kind of request a client sends.
type opKind uint8

const (
	opExists opKind = iota
	opCount
	opPairsFrom // pairs restricted to one source
	opPaged     // pairs with limit=100
	opDump      // the whole relation
	opExpr      // RPQ expression, count from one source
	opWrite     // a batch of edges
	opBuild     // grammar re-registration, then the rebuilding count
	numKinds
)

var kindNames = [numKinds]string{"exists", "count", "pairs-from", "paged", "dump", "expr", "write", "build"}

func (k opKind) String() string { return kindNames[k] }

// class groups kinds into the latency classes the benchmark reports.
func (k opKind) class() string {
	switch k {
	case opExists, opCount:
		return "point"
	case opPairsFrom, opPaged:
		return "pairs"
	default:
		return k.String()
	}
}

// op is one scripted request.
type op struct {
	kind  opKind
	graph int    // index into the workload's graphs
	from  string // exists, pairs-from, expr: the source node
	to    string // exists: the target node
	edges []server.EdgeSpec
}

// pagedLimit is the page size of paged pairs requests.
const pagedLimit = 100

// exprQuery is the RPQ expression live-mix readers send. It is evaluated
// uncached with the source-frontier closure.
const exprQuery = "a b* a"

// mixEntry gives one op kind's share of a deck of deckSize ops.
type mixEntry struct {
	kind  opKind
	count int
}

// deckSize is the length of one shuffled deck of reader ops. A deck holds
// each kind exactly as often as its mix entry says, split evenly over the
// graphs, so every run reads the same mix however many decks it deals.
const deckSize = 100

var (
	readMix = []mixEntry{{opExists, 60}, {opCount, 10}, {opPairsFrom, 20}, {opPaged, 8}, {opDump, 2}}
	liveMix = []mixEntry{{opExists, 50}, {opCount, 10}, {opPairsFrom, 20}, {opExpr, 20}}
)

func mixString(mix []mixEntry) string {
	var b bytes.Buffer
	for i, m := range mix {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d%%", m.kind, m.count*100/deckSize)
	}
	return b.String()
}

// streamSeed derives the seed of one client's op stream.
func streamSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream)*7919 + 17 }

// opGen deals a reader's ops from shuffled decks. Expr queries go to
// exprGraph; every other kind alternates over the graphs. Given the same
// seed, stream and oracles it yields the same ops.
type opGen struct {
	rng       *rand.Rand
	mix       []mixEntry
	graphs    []*oracle
	exprGraph int
	deck      []op
}

func newOpGen(seed int64, stream int, mix []mixEntry, graphs []*oracle, exprGraph int) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(streamSeed(seed, stream))), mix: mix, graphs: graphs, exprGraph: exprGraph}
}

// deckDone reports whether the current deck is used up; clients stop only
// between decks.
func (g *opGen) deckDone() bool { return len(g.deck) == 0 }

func (g *opGen) deal() {
	for _, m := range g.mix {
		for k := 0; k < m.count; k++ {
			gi := k % len(g.graphs)
			if m.kind == opExpr {
				gi = g.exprGraph
			}
			g.deck = append(g.deck, op{kind: m.kind, graph: gi})
		}
	}
	g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
}

func (g *opGen) next() op {
	if len(g.deck) == 0 {
		g.deal()
	}
	out := g.deck[0]
	g.deck = g.deck[1:]
	o := g.graphs[out.graph]
	switch out.kind {
	case opExists:
		if g.rng.Intn(2) == 0 && len(o.active) > 0 {
			// A pair of the relation, so half the answers are true.
			src := o.active[g.rng.Intn(len(o.active))]
			row := o.rows[src]
			out.from, out.to = o.names[src], o.names[row[g.rng.Intn(len(row))]]
		} else {
			out.from, out.to = o.names[g.rng.Intn(len(o.names))], o.names[g.rng.Intn(len(o.names))]
		}
	case opPairsFrom:
		out.from = o.names[o.active[g.rng.Intn(len(o.active))]]
	case opExpr:
		out.from = o.names[g.rng.Intn(len(o.names))]
	}
	return out
}

// writeScript is the live-mix writer's fixed script: batches of edgesPerWrite
// random edges between existing nodes, alternating over the graphs. Graphs
// with inverse labels get each edge's inverse in the same batch.
func writeScript(seed int64, batches int, inputs []graphInput, graphs []*oracle) []op {
	rng := rand.New(rand.NewSource(streamSeed(seed, 1000)))
	out := make([]op, batches)
	for b := range out {
		gi := b % len(graphs)
		in, o := inputs[gi], graphs[gi]
		var edges []server.EdgeSpec
		for e := 0; e < edgesPerWrite; e++ {
			from, to := o.names[rng.Intn(len(o.names))], o.names[rng.Intn(len(o.names))]
			label := in.labels[rng.Intn(len(in.labels))]
			edges = append(edges, server.EdgeSpec{From: from, Label: label, To: to})
			if in.inverse {
				edges = append(edges, server.EdgeSpec{From: to, Label: label + graph.InverseSuffix, To: from})
			}
		}
		out[b] = op{kind: opWrite, graph: gi, edges: edges}
	}
	return out
}

// edgesPerWrite is the number of random edges in one write batch.
const edgesPerWrite = 4
