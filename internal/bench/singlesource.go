//lint:file-allow cfpqlint/ctxflow bench harness: standalone CLI tooling with no caller context; runs on its own root context by design
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"cfpq"
	"cfpq/internal/dataset"
	"cfpq/internal/grammar"
	"cfpq/internal/matrix"
)

// SingleSourceConfig drives RunSingleSource — the serving-workload
// scenario: instead of the paper's all-pairs closure, answer "what can
// these k nodes reach via S?" with the source-restricted evaluation and
// report its speedup over paying for the full n×n closure.
type SingleSourceConfig struct {
	// Datasets names the graphs to measure; nil means the five real
	// ontologies the ablations use (skos, foaf, funding, wine, pizza).
	Datasets []string
	// Grammars names the measured query grammars; valid entries are
	// "query1" and "query2" (the paper's same-generation queries, whose
	// inverse edges make the component strongly connected, so the frontier
	// saturates and the restricted closure honestly falls back) and
	// "ancestors" (S → subClassOf S | subClassOf, the directed class-
	// hierarchy walk a serving workload actually issues per node, whose
	// frontier stays tiny). Nil means {"query1", "ancestors"} — one row
	// showing the fallback at parity, one showing the win.
	Grammars []string
	// Sources is the number of source nodes per measurement. Zero means 1
	// (the single-source case).
	Sources int
	// Repeats is the number of timed runs per cell; the minimum is
	// reported. Zero means 3.
	Repeats int
	// Backend names the matrix backend. Empty means sparse (the paper's
	// sCPU, the serving default).
	Backend string
	// Seed makes the source choice reproducible. Zero means seed 1.
	Seed int64
}

// singleSourceGrammar resolves a grammar name of SingleSourceConfig.
func singleSourceGrammar(name string) (*grammar.Grammar, error) {
	switch name {
	case "query1":
		return dataset.Query(1), nil
	case "query2":
		return dataset.Query(2), nil
	case "ancestors":
		return grammar.MustParse("S -> subClassOf S | subClassOf"), nil
	default:
		return nil, fmt.Errorf("bench: unknown grammar %q (want query1, query2 or ancestors)", name)
	}
}

// SingleSourceRow is one measured (dataset, sources) cell, the unit the
// BENCH_*.json artifact records.
type SingleSourceRow struct {
	Scenario string `json:"scenario"`
	Dataset  string `json:"dataset"`
	Grammar  string `json:"grammar"`
	Backend  string `json:"backend"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	// Sources is the number of source nodes queried from.
	Sources int `json:"sources"`
	// Pairs is the result size — identical for both evaluations (checked).
	Pairs int `json:"pairs"`
	// Frontier is the number of rows the restricted closure ended up
	// maintaining; Saturated reports a fallback to the full closure.
	Frontier  int  `json:"frontier"`
	Saturated bool `json:"saturated"`
	// AllPairsMS is the full-closure evaluation time (best of Repeats);
	// SingleSourceMS the source-restricted one; Speedup their ratio.
	AllPairsMS     float64 `json:"all_pairs_ms"`
	SingleSourceMS float64 `json:"single_source_ms"`
	Speedup        float64 `json:"speedup"`
}

// defaultSingleSourceDatasets are the five real ontologies the ablation
// studies also use, spanning the paper's size range.
var defaultSingleSourceDatasets = []string{"skos", "foaf", "funding", "wine", "pizza"}

// RunSingleSource measures, per (dataset, grammar) cell, answering a
// k-source question by (a) evaluating the full all-pairs closure and
// filtering and (b) the source-restricted closure (a Sources Request),
// verifying both agree pair for pair.
func RunSingleSource(cfg SingleSourceConfig) ([]SingleSourceRow, error) {
	names := cfg.Datasets
	if len(names) == 0 {
		names = defaultSingleSourceDatasets
	}
	gramNames := cfg.Grammars
	if len(gramNames) == 0 {
		gramNames = []string{"query1", "ancestors"}
	}
	k := cfg.Sources
	if k <= 0 {
		k = 1
	}
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 3
	}
	backendName := cfg.Backend
	if backendName == "" {
		backendName = "sparse"
	}
	be, err := cfpq.BackendByName(backendName)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	eng := cfpq.NewEngine(be)
	ctx := context.Background()
	var rows []SingleSourceRow
	for _, name := range names {
		d, ok := dataset.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown dataset %q", name)
		}
		g := d.Build()
		n := g.Nodes()
		rng := rand.New(rand.NewSource(seed))
		sources := make([]int, 0, k)
		seen := map[int]bool{}
		for len(sources) < k && len(sources) < n {
			s := rng.Intn(n)
			if !seen[s] {
				seen[s] = true
				sources = append(sources, s)
			}
		}

		for _, gramName := range gramNames {
			gram, err := singleSourceGrammar(gramName)
			if err != nil {
				return rows, err
			}

			var full []cfpq.Pair
			bestFull := time.Duration(0)
			for r := 0; r < repeats; r++ {
				start := time.Now()
				res, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S"})
				if err != nil {
					return rows, err
				}
				pairs := res.AllPairs()
				filtered := pairs[:0:0]
				for _, p := range pairs {
					if seen[p.I] {
						filtered = append(filtered, p)
					}
				}
				if d := time.Since(start); bestFull == 0 || d < bestFull {
					bestFull = d
				}
				full = filtered
			}

			var res *cfpq.Result
			bestFrom := time.Duration(0)
			for r := 0; r < repeats; r++ {
				start := time.Now()
				res, err = eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Sources: sources})
				if err != nil {
					return rows, err
				}
				if d := time.Since(start); bestFrom == 0 || d < bestFrom {
					bestFrom = d
				}
			}

			if restricted := res.AllPairs(); !pairsEqual(full, restricted) {
				return rows, fmt.Errorf("bench: %s/%s: source-restricted answer disagrees with the filtered full closure (%d vs %d pairs)",
					name, gramName, len(restricted), len(full))
			}
			rows = append(rows, SingleSourceRow{
				Scenario:       "single-source",
				Dataset:        name,
				Grammar:        gramName,
				Backend:        backendName,
				Nodes:          n,
				Edges:          g.EdgeCount(),
				Sources:        len(sources),
				Pairs:          len(full),
				Frontier:       res.Explain.Frontier,
				Saturated:      res.Explain.Saturated,
				AllPairsMS:     msFloat(bestFull),
				SingleSourceMS: msFloat(bestFrom),
				Speedup:        float64(bestFull) / float64(bestFrom),
			})
		}
	}
	return rows, nil
}

func pairsEqual(a, b []matrix.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func msFloat(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000.0
}

// FormatSingleSource renders rows as a readable table.
func FormatSingleSource(w io.Writer, rows []SingleSourceRow) {
	fmt.Fprintf(w, "Single-source CFPQ vs all-pairs (%s backend)\n\n", rowsBackend(rows))
	fmt.Fprintf(w, "%-14s %-10s %8s %8s %8s %9s %12s %12s %9s\n",
		"Ontology", "grammar", "nodes", "sources", "pairs", "frontier", "allpairs(ms)", "source(ms)", "speedup")
	for _, r := range rows {
		frontier := fmt.Sprintf("%d", r.Frontier)
		if r.Saturated {
			frontier = "sat"
		}
		fmt.Fprintf(w, "%-14s %-10s %8d %8d %8d %9s %12.2f %12.2f %8.1fx\n",
			r.Dataset, r.Grammar, r.Nodes, r.Sources, r.Pairs, frontier,
			r.AllPairsMS, r.SingleSourceMS, r.Speedup)
	}
}

func rowsBackend(rows []SingleSourceRow) string {
	if len(rows) == 0 {
		return "sparse"
	}
	return rows[0].Backend
}

// WriteBenchJSON writes the rows of any scenario (SingleSourceRow,
// WarmStartRow, …) as the BENCH_*.json artifact format: an indented JSON
// object with a single "rows" key, stable for diffing.
func WriteBenchJSON(w io.Writer, rows any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"rows": rows})
}
