package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"cfpq/internal/graphgen"
	"cfpq/internal/server"
)

// smallOracle evaluates a 300-node scale-free graph, small enough for unit
// tests but with a relation of a few hundred pairs.
func smallOracle(t *testing.T) (*oracle, graphInput) {
	t.Helper()
	in := scaleFreeInput()
	in.doc = edgeListDoc(generated(graphgen.Spec{Kind: graphgen.KindScaleFree, Nodes: 300, Seed: 3}))
	gg, ids, err := parseInput(in)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := referencePairs(context.Background(), gg, in.text)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(gg.Nodes(), ids, pairs)
	if o.count < 20 || len(o.active) < 2 {
		t.Fatalf("test relation too small: %d pairs", o.count)
	}
	return o, in
}

func pairsOf(o *oracle) []server.NamedPair {
	var out []server.NamedPair
	for i, row := range o.rows {
		for _, j := range row {
			out = append(out, server.NamedPair{From: o.names[i], To: o.names[j]})
		}
	}
	return out
}

func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	o, _ := smallOracle(t)
	b := exact(o)
	all := pairsOf(o)
	src := o.active[0]
	var row []server.NamedPair
	for _, p := range all {
		if p.From == o.names[src] {
			row = append(row, p)
		}
	}
	absent := ""
	for j := range o.names {
		if !o.has(src, j) {
			absent = o.names[j]
			break
		}
	}

	if err := b.checkCount(o.count); err != nil {
		t.Errorf("right count rejected: %v", err)
	}
	if b.checkCount(o.count+1) == nil {
		t.Error("count off by one accepted")
	}
	if err := b.checkExists(all[0].From, all[0].To, true); err != nil {
		t.Errorf("right exists rejected: %v", err)
	}
	if b.checkExists(all[0].From, all[0].To, false) == nil {
		t.Error("exists flipped to false accepted")
	}
	if b.checkExists(o.names[src], absent, true) == nil {
		t.Error("exists flipped to true accepted")
	}

	if err := b.checkPairsFrom(o.names[src], row); err != nil {
		t.Errorf("right pairs rejected: %v", err)
	}
	if b.checkPairsFrom(o.names[src], row[1:]) == nil {
		t.Error("pairs with one dropped accepted")
	}
	if b.checkPairsFrom(o.names[src], append(slices.Clone(row), row[0])) == nil {
		t.Error("pairs with a duplicate accepted")
	}
	if b.checkPairsFrom(o.names[src], append(slices.Clone(row), server.NamedPair{From: o.names[src], To: absent})) == nil {
		t.Error("pairs with an extra pair accepted")
	}

	page := all[:10]
	if err := b.checkPaged(10, page, true); err != nil {
		t.Errorf("right page rejected: %v", err)
	}
	swapped := slices.Clone(page)
	swapped[3] = all[10]
	if b.checkPaged(10, swapped, true) == nil {
		t.Error("page holding a later pair accepted")
	}
	if b.checkPaged(10, page, false) == nil {
		t.Error("page not marked truncated accepted")
	}

	if err := b.checkDump(all); err != nil {
		t.Errorf("right dump rejected: %v", err)
	}
	corrupt := slices.Clone(all)
	corrupt[len(corrupt)/2] = server.NamedPair{From: o.names[src], To: absent}
	if b.checkDump(corrupt) == nil {
		t.Error("dump with one pair replaced accepted")
	}
	if b.checkDump(all[1:]) == nil {
		t.Error("dump with one pair dropped accepted")
	}

	e := exprBounds{ids: o.ids, lo: make([]int, len(o.names)), hi: make([]int, len(o.names))}
	e.lo[src], e.hi[src] = 2, 5
	if err := e.checkCountFrom(o.names[src], 3); err != nil {
		t.Errorf("expr count within bounds rejected: %v", err)
	}
	if e.checkCountFrom(o.names[src], 6) == nil {
		t.Error("expr count above the bound accepted")
	}
}

func TestLiveBoundsAcceptGrowthOnly(t *testing.T) {
	o, _ := smallOracle(t)
	// A relation that lost one pair stands for the state before a write.
	lo := &oracle{names: o.names, ids: o.ids, rows: slices.Clone(o.rows), start: o.start, count: o.count - 1}
	src := o.active[0]
	lo.rows[src] = o.rows[src][1:]
	b := bounds{lo: lo, hi: o}
	grown := server.NamedPair{From: o.names[src], To: o.names[o.rows[src][0]]}
	if err := b.checkExists(grown.From, grown.To, false); err != nil {
		t.Errorf("pair not yet written rejected: %v", err)
	}
	if err := b.checkExists(grown.From, grown.To, true); err != nil {
		t.Errorf("pair already written rejected: %v", err)
	}
	if err := b.checkCount(o.count - 1); err != nil {
		t.Errorf("count before the write rejected: %v", err)
	}
	if b.checkCount(o.count-2) == nil {
		t.Error("count below the initial relation accepted")
	}
}

func TestOpScriptIsFixedBySeed(t *testing.T) {
	o, in := smallOracle(t)
	graphs := []*oracle{o, o}
	inputs := []graphInput{in, in}
	draw := func(seed int64, stream int) []op {
		g := newOpGen(seed, stream, liveMix, graphs, 0)
		out := make([]op, 3*deckSize)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	if a, b := draw(7, 0), draw(7, 0); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different reader scripts")
	}
	if reflect.DeepEqual(draw(7, 0), draw(8, 0)) || reflect.DeepEqual(draw(7, 0), draw(7, 1)) {
		t.Fatal("different seeds or streams gave the same reader script")
	}
	if a, b := writeScript(7, 50, inputs, graphs), writeScript(7, 50, inputs, graphs); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different write scripts")
	}
	if reflect.DeepEqual(writeScript(7, 50, inputs, graphs), writeScript(8, 50, inputs, graphs)) {
		t.Fatal("different seeds gave the same write script")
	}

	// Every deck holds the mix exactly.
	ops := draw(7, 0)
	for d := 0; d < 3; d++ {
		counts := map[opKind]int{}
		for _, x := range ops[d*deckSize : (d+1)*deckSize] {
			counts[x.kind]++
		}
		for _, m := range liveMix {
			if counts[m.kind] != m.count {
				t.Errorf("deck %d holds %d %s ops, want %d", d, counts[m.kind], m.kind, m.count)
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric names live in.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	want := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.name] = d.unit
		}
		return m
	}
	listed := func(rows []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		m := map[string]string{}
		for _, r := range rows {
			m[r.Name] = r.Unit
		}
		return m
	}
	if got := listed(bf.EndToEnd); !reflect.DeepEqual(got, want(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark prints %v", got, want(endToEnd))
	}
	if got := listed(bf.PerLayer); !reflect.DeepEqual(got, want(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark prints %v", got, want(perLayer))
	}

	// A short run prints exactly those names.
	if testing.Short() {
		return
	}
	for _, trace := range []bool{false, true} {
		w := *workloadByName("read-mix")
		w.minOps, w.setups = 200, 2
		cfg := config{seed: 1, seconds: 0.2, trace: trace, out: t.TempDir()}
		res, _, err := execute(context.Background(), cfg, &w)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("short run failed %d of %d ops", res.Failed, res.Attempted)
		}
		printed := map[string]string{}
		for name, v := range res.Metrics {
			printed[name] = v.Unit
		}
		defs := bf.EndToEnd
		if trace {
			defs = bf.PerLayer
		}
		if !reflect.DeepEqual(printed, listed(defs)) {
			t.Errorf("trace=%v run printed %v, BENCHMARK.json lists %v", trace, printed, listed(defs))
		}
	}
}
