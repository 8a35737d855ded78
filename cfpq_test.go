package cfpq

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// doPairs evaluates req with eng and returns the answer's pair list.
func doPairs(t *testing.T, eng *Engine, req Request) []Pair {
	t.Helper()
	res, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res.AllPairs()
}

func TestQuickstartFromDoc(t *testing.T) {
	// The doc.go example must work exactly as written.
	eng := NewEngine(Sparse)
	g := NewGraph(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	gram, err := ParseGrammar("S -> a S b | a b")
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Do(context.Background(), Request{Graph: g, Grammar: gram, Nonterminal: "S"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Pair{{I: 0, J: 2}}; !reflect.DeepEqual(res.AllPairs(), want) {
		t.Errorf("pairs = %v, want %v", res.AllPairs(), want)
	}
}

func TestEvaluateAndSinglePath(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(Sparse)
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	cnf, err := ToCNF(MustParseGrammar("S -> a b"))
	if err != nil {
		t.Fatal(err)
	}
	ix, stats, err := eng.Evaluate(ctx, g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Has("S", 0, 2) {
		t.Error("(0,2) missing")
	}
	if stats.Iterations == 0 {
		t.Error("no iterations recorded")
	}
	px, err := eng.SinglePath(ctx, g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	path, ok := px.Path("S", 0, 2)
	if !ok || len(path) != 2 {
		t.Errorf("path = %v, ok=%v", path, ok)
	}
}

func TestAllPathsPublicAPI(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(Sparse)
	g := NewGraph(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	cnf, _ := ToCNF(MustParseGrammar("S -> a b"))
	ix, _, err := eng.Evaluate(ctx, g, cnf)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := eng.AllPaths(ctx, g, ix, "S", 0, 2, AllPathsOptions{})
	if err != nil || len(paths) != 1 {
		t.Errorf("paths = %v, err = %v", paths, err)
	}
	if _, err := eng.AllPaths(ctx, g, ix, "Nope", 0, 2, AllPathsOptions{}); err == nil {
		t.Error("unknown non-terminal should error")
	}
}

func TestWithEmptyPaths(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, "a", 1)
	gram := MustParseGrammar("S -> a S | eps")
	pairs := doPairs(t, NewEngine(Sparse), Request{Graph: g, Grammar: gram, Nonterminal: "S", EmptyPaths: true})
	want := []Pair{{I: 0, J: 0}, {I: 0, J: 1}, {I: 1, J: 1}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("pairs = %v, want %v", pairs, want)
	}
}

func TestLoadNTriplesPublicAPI(t *testing.T) {
	g, ids, err := LoadNTriples(strings.NewReader("<x> <p> <y> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 2 || g.EdgeCount() != 2 {
		t.Errorf("graph = %v", g)
	}
	gram := MustParseGrammar("S -> p_r")
	pairs := doPairs(t, NewEngine(Sparse), Request{Graph: g, Grammar: gram, Nonterminal: "S"})
	if len(pairs) != 1 || pairs[0].I != ids["y"] || pairs[0].J != ids["x"] {
		t.Errorf("inverse-edge query = %v (ids %v)", pairs, ids)
	}
}

func TestQueryErrors(t *testing.T) {
	g := NewGraph(1)
	gram := MustParseGrammar("S -> a")
	if _, err := NewEngine(Sparse).Do(context.Background(), Request{Graph: g, Grammar: gram, Nonterminal: "Missing"}); err == nil {
		t.Error("unknown start non-terminal should error")
	}
}
