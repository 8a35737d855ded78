package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/graphgen"
	"cfpq/internal/matrix"
)

// goldenCounters is what one closure schedule did on one input: the
// deterministic work counters every schedule reports, plus its pass-event
// chain. Pinning them makes a restructuring of the fixpoint loops provably
// work-preserving: same passes, same products, same working-set estimate,
// same events.
type goldenCounters struct {
	iterations, products int
	// peakDense and peakSparse are Stats.PeakBytes under the dense and the
	// sparse representation (serial and parallel kernels agree).
	peakDense, peakSparse int64
	frontier              int
	saturated             bool
	// legacy counts WithTrace callback invocations.
	legacy int
	// events is the PassEvent chain as "phase:products:frontier" tokens,
	// runs of equal tokens folded to "token*count".
	events string
}

// goldenInputs are the instances every schedule is pinned on: the paper's
// Figure 5 example and two small graphgen topologies under the Dyck
// grammar. sources is a source set whose frontier stays below the
// saturation threshold (nil where none exists); saturating is one that
// crosses it. tail is how many trailing edges the update schedule adds to
// the closure of the rest.
type goldenInput struct {
	name                string
	g                   *graph.Graph
	cnf                 *grammar.CNF
	sources, saturating []int
	tail                int
}

func goldenInputs(t *testing.T) []goldenInput {
	t.Helper()
	dyck := grammar.MustParseCNF("S -> a S b | a b")
	gen := func(kind graphgen.Kind) *graph.Graph {
		g, err := graphgen.Generate(graphgen.Spec{Kind: kind, Nodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return []goldenInput{
		{name: "fig5", g: paperGraph(), cnf: grammar.MustParseCNF(paperCNF), saturating: []int{0}, tail: 2},
		{name: "chain", g: gen(graphgen.KindChain), cnf: dyck, sources: []int{12}, saturating: []int{0}, tail: 3},
		{name: "grid", g: gen(graphgen.KindGrid), cnf: dyck, sources: []int{10}, saturating: []int{0}, tail: 3},
	}
}

// goldenWant pins every (input, schedule) pair.
var goldenWant = map[string]goldenCounters{
	"fig5/full": {iterations: 4, products: 24, peakDense: 168, peakSparse: 552, frontier: 0, saturated: false, legacy: 5,
		events: "full:0:0 full:6:0*4"},
	"fig5/naive": {iterations: 6, products: 36, peakDense: 336, peakSparse: 1104, frontier: 0, saturated: false, legacy: 7,
		events: "naive:0:0 naive:6:0*6"},
	"fig5/delta": {iterations: 6, products: 72, peakDense: 504, peakSparse: 1564, frontier: 0, saturated: false, legacy: 7,
		events: "delta:0:0 delta:12:0*6"},
	"fig5/saturating": {iterations: 4, products: 24, peakDense: 336, peakSparse: 1008, frontier: 3, saturated: true, legacy: 5,
		events: "frontier:0:3*2 full:6:0*4"},
	"fig5/update": {iterations: 6, products: 72, peakDense: 504, peakSparse: 1564, frontier: 0, saturated: false, legacy: 0,
		events: "update:0:0 update:12:0*6"},
	"chain/full": {iterations: 8, products: 24, peakDense: 512, peakSparse: 1648, frontier: 0, saturated: false, legacy: 9,
		events: "full:0:0 full:3:0*8"},
	"chain/naive": {iterations: 14, products: 42, peakDense: 1024, peakSparse: 3296, frontier: 0, saturated: false, legacy: 15,
		events: "naive:0:0 naive:3:0*14"},
	"chain/delta": {iterations: 14, products: 84, peakDense: 1536, peakSparse: 4728, frontier: 0, saturated: false, legacy: 15,
		events: "delta:0:0 delta:6:0*14"},
	"chain/frontier": {iterations: 1, products: 6, peakDense: 1536, peakSparse: 4632, frontier: 4, saturated: false, legacy: 0,
		events: "frontier:0:4 frontier:6:4"},
	"chain/saturating": {iterations: 8, products: 24, peakDense: 1024, peakSparse: 3072, frontier: 16, saturated: true, legacy: 9,
		events: "frontier:0:16*2 full:3:0*8"},
	"chain/update": {iterations: 7, products: 42, peakDense: 1536, peakSparse: 4724, frontier: 0, saturated: false, legacy: 0,
		events: "update:0:0 update:6:0*7"},
	"grid/full": {iterations: 4, products: 12, peakDense: 512, peakSparse: 1720, frontier: 0, saturated: false, legacy: 5,
		events: "full:0:0 full:3:0*4"},
	"grid/naive": {iterations: 6, products: 18, peakDense: 1024, peakSparse: 3440, frontier: 0, saturated: false, legacy: 7,
		events: "naive:0:0 naive:3:0*6"},
	"grid/delta": {iterations: 6, products: 36, peakDense: 1536, peakSparse: 4800, frontier: 0, saturated: false, legacy: 7,
		events: "delta:0:0 delta:6:0*6"},
	"grid/frontier": {iterations: 2, products: 12, peakDense: 1536, peakSparse: 4640, frontier: 4, saturated: false, legacy: 0,
		events: "frontier:0:4 frontier:6:4*2"},
	"grid/saturating": {iterations: 4, products: 12, peakDense: 1024, peakSparse: 3072, frontier: 16, saturated: true, legacy: 5,
		events: "frontier:0:16*2 full:3:0*4"},
	"grid/update": {iterations: 3, products: 18, peakDense: 1536, peakSparse: 4812, frontier: 0, saturated: false, legacy: 0,
		events: "update:0:0 update:6:0*3"},
}

// goldenRun runs one schedule on one input under one backend and reports
// its counters.
func goldenRun(t *testing.T, in goldenInput, schedule string, be matrix.Backend) (goldenCounters, Stats) {
	t.Helper()
	var c goldenCounters
	var tokens []string
	tr := &Trace{Pass: func(ev PassEvent) {
		if ev.Pass != len(tokens) {
			t.Fatalf("%s/%s: event %d numbered %d", in.name, schedule, len(tokens), ev.Pass)
		}
		tokens = append(tokens, fmt.Sprintf("%s:%d:%d", ev.Phase, ev.Products, ev.Frontier))
	}}
	ctx := WithTraceContext(context.Background(), tr)
	opts := []Option{WithBackend(be), WithTrace(func(int, *Index) { c.legacy++ })}
	var st Stats
	var err error
	switch schedule {
	case "full", "naive", "delta":
		switch schedule {
		case "naive":
			opts = append(opts, WithNaiveIteration())
		case "delta":
			opts = append(opts, WithDeltaIteration())
		}
		_, st, err = NewEngine(opts...).RunContext(ctx, in.g, in.cnf)
	case "frontier", "saturating":
		sources := in.sources
		if schedule == "saturating" {
			sources = in.saturating
		}
		var fs FromStats
		_, fs, err = NewEngine(opts...).RunFromContext(ctx, in.g, in.cnf, sources)
		st, c.frontier, c.saturated = fs.Stats, fs.Frontier, fs.Saturated
	case "update":
		edges := in.g.Edges()
		base := graph.New(in.g.Nodes())
		for _, ed := range edges[:len(edges)-in.tail] {
			base.AddEdge(ed.From, ed.Label, ed.To)
		}
		e := NewEngine(opts...)
		ix := e.Init(base, in.cnf)
		e.Close(ix)
		c.legacy = 0 // the untraced build's callbacks are not the update's
		st, _, err = e.UpdateContext(ctx, ix, edges[len(edges)-in.tail:]...)
	default:
		t.Fatalf("unknown schedule %q", schedule)
	}
	if err != nil {
		t.Fatalf("%s/%s on %s: %v", in.name, schedule, be.Name(), err)
	}
	c.iterations, c.products = st.Iterations, st.Products
	c.events = foldTokens(tokens)
	return c, st
}

// foldTokens joins event tokens, folding runs of equal ones.
func foldTokens(tokens []string) string {
	var out []string
	for i := 0; i < len(tokens); {
		j := i
		for j < len(tokens) && tokens[j] == tokens[i] {
			j++
		}
		if j-i > 1 {
			out = append(out, fmt.Sprintf("%s*%d", tokens[i], j-i))
		} else {
			out = append(out, tokens[i])
		}
		i = j
	}
	return strings.Join(out, " ")
}

// goldenSchedules lists every closure schedule the engine can run.
var goldenSchedules = []string{"full", "naive", "delta", "frontier", "saturating", "update"}

// TestGoldenScheduleCounters pins, for every closure schedule on every
// golden input and backend, the pass and product counts, the working-set
// peak, the frontier outcome, the legacy trace callbacks and the pass-event
// chain.
func TestGoldenScheduleCounters(t *testing.T) {
	for _, in := range goldenInputs(t) {
		for _, schedule := range goldenSchedules {
			if schedule == "frontier" && in.sources == nil {
				continue
			}
			key := in.name + "/" + schedule
			want, ok := goldenWant[key]
			if !ok {
				t.Errorf("%s: no golden counters", key)
				continue
			}
			for _, be := range matrix.Backends() {
				got, st := goldenRun(t, in, schedule, be)
				got.peakDense, got.peakSparse = want.peakDense, want.peakSparse
				peak := want.peakSparse
				if strings.HasPrefix(be.Name(), "dense") {
					peak = want.peakDense
				}
				if got != want || st.PeakBytes != peak {
					t.Errorf("%s on %s:\n got %+v peak %d\nwant %+v peak %d", key, be.Name(), got, st.PeakBytes, want, peak)
				}
			}
		}
	}
}
