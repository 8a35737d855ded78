//lint:file-allow cfpqlint/ctxflow bench harness: standalone CLI tooling with no caller context; runs on its own root context by design
package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"cfpq"
	"cfpq/internal/dataset"
)

// PlannerConfig drives RunPlanner — the planner scenario: the same
// restricted question asked twice, once as a full all-pairs closure
// filtered after the fact and once as a declarative Request evaluated by
// the planner (Engine.Do), which picks the source- or target-frontier
// strategy. The rows record the strategy chosen, the frontier it
// maintained and the speedup over paying for the full closure — in
// particular that the new target-restricted strategy lands in the same
// speedup class as the source-restricted one on directed grammars.
type PlannerConfig struct {
	// Datasets names the graphs to measure; nil means the five real
	// ontologies the other scenarios use.
	Datasets []string
	// Grammars names the measured query grammars (see RunSingleSource for
	// the valid names). Nil means {"ancestors"} — the directed
	// class-hierarchy walk whose frontier stays small in both directions.
	Grammars []string
	// Nodes is the number of restriction nodes per measurement. Zero
	// means 1.
	Nodes int
	// Repeats is the number of timed runs per cell; the minimum is
	// reported. Zero means 3.
	Repeats int
	// Backend names the matrix backend. Empty means sparse.
	Backend string
	// Seed makes the restriction choice reproducible. Zero means seed 1.
	Seed int64
}

// PlannerRow is one measured (dataset, grammar, restriction) cell.
type PlannerRow struct {
	Scenario string `json:"scenario"`
	Dataset  string `json:"dataset"`
	Grammar  string `json:"grammar"`
	Backend  string `json:"backend"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	// Restriction is which side of the pair was restricted: "sources" or
	// "targets".
	Restriction string `json:"restriction"`
	// K is the number of restriction nodes.
	K int `json:"k"`
	// Pairs is the result size — identical for both evaluations (checked).
	Pairs int `json:"pairs"`
	// Strategy is what the planner chose (pinning that a source
	// restriction plans source-frontier and a target restriction plans
	// target-frontier); Frontier and Saturated are its Explain record.
	Strategy  string `json:"strategy"`
	Frontier  int    `json:"frontier"`
	Saturated bool   `json:"saturated"`
	// FullMS is the full-closure-and-filter time (best of Repeats);
	// PlannerMS the planned Request; Speedup their ratio.
	FullMS    float64 `json:"full_ms"`
	PlannerMS float64 `json:"planner_ms"`
	Speedup   float64 `json:"speedup"`
}

// RunPlanner measures, per (dataset, grammar) cell and per restriction
// side, a restricted query answered by (a) the full all-pairs closure
// filtered afterwards and (b) the planner's chosen frontier strategy,
// verifying both agree pair for pair.
func RunPlanner(cfg PlannerConfig) ([]PlannerRow, error) {
	names := cfg.Datasets
	if len(names) == 0 {
		names = defaultSingleSourceDatasets
	}
	gramNames := cfg.Grammars
	if len(gramNames) == 0 {
		gramNames = []string{"ancestors"}
	}
	k := cfg.Nodes
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
	var rows []PlannerRow
	for _, name := range names {
		d, ok := dataset.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown dataset %q", name)
		}
		g := d.Build()
		n := g.Nodes()
		rng := rand.New(rand.NewSource(seed))
		restriction := make([]int, 0, k)
		seen := map[int]bool{}
		for len(restriction) < k && len(restriction) < n {
			v := rng.Intn(n)
			if !seen[v] {
				seen[v] = true
				restriction = append(restriction, v)
			}
		}

		for _, gramName := range gramNames {
			gram, err := singleSourceGrammar(gramName)
			if err != nil {
				return rows, err
			}
			for _, side := range []string{"sources", "targets"} {
				req := cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S"}
				if side == "sources" {
					req.Sources = restriction
				} else {
					req.Targets = restriction
				}

				// (a) the full closure, filtered to the restriction.
				var full []cfpq.Pair
				bestFull := time.Duration(0)
				for r := 0; r < repeats; r++ {
					start := time.Now()
					fullRes, err := eng.Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S"})
					if err != nil {
						return rows, err
					}
					pairs := fullRes.AllPairs()
					filtered := pairs[:0:0]
					for _, p := range pairs {
						if (side == "sources" && seen[p.I]) || (side == "targets" && seen[p.J]) {
							filtered = append(filtered, p)
						}
					}
					if d := time.Since(start); bestFull == 0 || d < bestFull {
						bestFull = d
					}
					full = filtered
				}

				// (b) the planner's frontier strategy.
				var res *cfpq.Result
				bestPlan := time.Duration(0)
				for r := 0; r < repeats; r++ {
					start := time.Now()
					out, err := eng.Do(ctx, req)
					if err != nil {
						return rows, err
					}
					if d := time.Since(start); bestPlan == 0 || d < bestPlan {
						bestPlan = d
					}
					res = out
				}

				planned := res.AllPairs()
				if !pairsEqual(full, planned) {
					return rows, fmt.Errorf("bench: %s/%s/%s: planner disagrees with filtered Query (%d vs %d pairs)",
						name, gramName, side, len(planned), len(full))
				}
				rows = append(rows, PlannerRow{
					Scenario:    "planner",
					Dataset:     name,
					Grammar:     gramName,
					Backend:     backendName,
					Nodes:       n,
					Edges:       g.EdgeCount(),
					Restriction: side,
					K:           len(restriction),
					Pairs:       len(full),
					Strategy:    string(res.Explain.Strategy),
					Frontier:    res.Explain.Frontier,
					Saturated:   res.Explain.Saturated,
					FullMS:      msFloat(bestFull),
					PlannerMS:   msFloat(bestPlan),
					Speedup:     float64(bestFull) / float64(bestPlan),
				})
			}
		}
	}
	return rows, nil
}

// FormatPlanner renders rows as a readable table.
func FormatPlanner(w io.Writer, rows []PlannerRow) {
	backend := "sparse"
	if len(rows) > 0 {
		backend = rows[0].Backend
	}
	fmt.Fprintf(w, "Planner strategies vs all-pairs (%s backend)\n\n", backend)
	fmt.Fprintf(w, "%-14s %-10s %-9s %-16s %8s %8s %9s %10s %12s %9s\n",
		"Ontology", "grammar", "restrict", "strategy", "nodes", "pairs", "frontier", "full(ms)", "planner(ms)", "speedup")
	for _, r := range rows {
		frontier := fmt.Sprintf("%d", r.Frontier)
		if r.Saturated {
			frontier = "sat"
		}
		fmt.Fprintf(w, "%-14s %-10s %-9s %-16s %8d %8d %9s %10.2f %12.2f %8.1fx\n",
			r.Dataset, r.Grammar, r.Restriction, r.Strategy, r.Nodes, r.Pairs, frontier,
			r.FullMS, r.PlannerMS, r.Speedup)
	}
}
