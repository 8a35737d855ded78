//lint:file-allow cfpqlint/ctxflow bench harness: standalone CLI tooling with no caller context; runs on its own root context by design
package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"cfpq"
	"cfpq/internal/dataset"
	"cfpq/internal/graph"
)

// LiveQueryConfig drives RunLiveQuery — the standing-query serving
// scenario behind POST /v1/subscribe: a client wants every newly derived
// pair of an evolving graph. The push path gets them from the incremental
// closure's per-update delta (Prepared.Subscribe); the baseline it
// replaces polls after every update and diffs full before/after results.
// Both sides pay the same index patch; the measured difference is
// delta-extraction-and-delivery vs materialise-relation-and-diff.
type LiveQueryConfig struct {
	// Datasets names the graphs to measure; nil means the five real
	// ontologies the other scenarios use (skos, foaf, funding, wine,
	// pizza).
	Datasets []string
	// Grammar names the query grammar: "query1", "query2" or "ancestors"
	// (see SingleSourceConfig). Empty means "query1".
	Grammar string
	// Backend names the matrix backend. Empty means sparse.
	Backend string
	// Holdback is the per-ten-thousand share of edges withheld from the
	// initial closure and replayed as live updates. Zero means 1000 (10%).
	Holdback int
	// BatchSize is the number of edges per update. Zero means 8.
	BatchSize int
	// Repeats is the number of timed runs per dataset; the minimum total
	// is reported. Zero means 3.
	Repeats int
}

// LiveQueryRow is one measured cell, the unit of BENCH_livequery.json.
type LiveQueryRow struct {
	Scenario string `json:"scenario"`
	Dataset  string `json:"dataset"`
	Grammar  string `json:"grammar"`
	Backend  string `json:"backend"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	// Updates is the number of edge batches replayed; NewPairs the total
	// pairs they newly derive (identical on both sides, verified).
	Updates  int `json:"updates"`
	NewPairs int `json:"new_pairs"`
	// PushMS is the total wall time of the subscription side: AddEdges
	// (incremental patch + delta extraction + hub publish) plus receiving
	// every pushed batch. PollMS is the poll-and-diff baseline for the
	// same updates: AddEdges plus materialising the full relation and
	// diffing it against the previous snapshot after every batch. Speedup
	// is PollMS / PushMS.
	PushMS  float64 `json:"push_ms"`
	PollMS  float64 `json:"poll_ms"`
	Speedup float64 `json:"speedup"`
	// PushUpdateMS / PollUpdateMS are per-update means.
	PushUpdateMS float64 `json:"push_update_ms"`
	PollUpdateMS float64 `json:"poll_update_ms"`
}

// RunLiveQuery measures, per dataset: prepare on the graph minus a held-back
// edge suffix, then replay the suffix in batches — once into a subscribed
// handle consuming pushed deltas, once into a polled handle diffing full
// relations — verifying both observe exactly the same newly derived pairs.
func RunLiveQuery(cfg LiveQueryConfig) ([]LiveQueryRow, error) {
	names := cfg.Datasets
	if len(names) == 0 {
		names = defaultSingleSourceDatasets
	}
	gramName := cfg.Grammar
	if gramName == "" {
		gramName = "query1"
	}
	gram, err := singleSourceGrammar(gramName)
	if err != nil {
		return nil, err
	}
	backendName := cfg.Backend
	if backendName == "" {
		backendName = "sparse"
	}
	be, err := cfpq.BackendByName(backendName)
	if err != nil {
		return nil, err
	}
	holdback := cfg.Holdback
	if holdback <= 0 {
		holdback = 1000
	}
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = 8
	}
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 3
	}
	eng := cfpq.NewEngine(be)
	ctx := context.Background()
	var rows []LiveQueryRow
	for _, name := range names {
		d, ok := dataset.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown dataset %q", name)
		}
		full := d.Build()
		edges := full.Edges()
		hold := len(edges) * holdback / 10000
		if hold < batchSize {
			hold = batchSize
		}
		split := len(edges) - hold
		base := graph.New(full.Nodes()) // fixed node set: no index growth
		for _, e := range edges[:split] {
			base.AddEdge(e.From, e.Label, e.To)
		}
		var batches [][]cfpq.Edge
		for at := split; at < len(edges); at += batchSize {
			end := at + batchSize
			if end > len(edges) {
				end = len(edges)
			}
			batches = append(batches, edges[at:end])
		}

		var row LiveQueryRow
		bestPush, bestPoll := time.Duration(0), time.Duration(0)
		for r := 0; r < repeats; r++ {
			// Push side: one subscribed handle, batches consumed as pushed.
			pushP, err := eng.Prepare(ctx, base.Clone(), gram)
			if err != nil {
				return rows, err
			}
			sub, err := pushP.Subscribe(ctx, cfpq.Request{Nonterminal: "S"})
			if err != nil {
				return rows, err
			}
			pushPairs := 0
			startPush := time.Now()
			for _, batch := range batches {
				info, err := pushP.AddEdges(ctx, batch...)
				if err != nil {
					return rows, err
				}
				if info.Delta != nil && len(info.Delta.Pairs("S")) > 0 {
					b := <-sub.Updates()
					pushPairs += len(b.Pairs)
				}
			}
			pushTime := time.Since(startPush)
			sub.Close()

			// Poll side: same updates, new pairs found by re-materialising
			// the relation and diffing against the previous snapshot.
			pollP, err := eng.Prepare(ctx, base.Clone(), gram)
			if err != nil {
				return rows, err
			}
			pollPairs := 0
			startPoll := time.Now()
			res, err := pollP.Do(ctx, cfpq.Request{Nonterminal: "S"})
			if err != nil {
				return rows, err
			}
			prev := pairSet(res.AllPairs())
			for _, batch := range batches {
				if _, err := pollP.AddEdges(ctx, batch...); err != nil {
					return rows, err
				}
				cur, err := pollP.Do(ctx, cfpq.Request{Nonterminal: "S"})
				if err != nil {
					return rows, err
				}
				for _, p := range cur.AllPairs() {
					if !prev[p] {
						pollPairs++
						prev[p] = true
					}
				}
			}
			pollTime := time.Since(startPoll)

			if pushPairs != pollPairs {
				return rows, fmt.Errorf("bench: %s: push delivered %d new pairs, poll-and-diff found %d",
					name, pushPairs, pollPairs)
			}
			row.NewPairs = pushPairs
			if bestPush == 0 || pushTime < bestPush {
				bestPush = pushTime
			}
			if bestPoll == 0 || pollTime < bestPoll {
				bestPoll = pollTime
			}
		}
		row.Scenario = "livequery"
		row.Dataset = name
		row.Grammar = gramName
		row.Backend = backendName
		row.Nodes = full.Nodes()
		row.Edges = full.EdgeCount()
		row.Updates = len(batches)
		row.PushMS = msFloat(bestPush)
		row.PollMS = msFloat(bestPoll)
		row.Speedup = float64(bestPoll) / float64(bestPush)
		row.PushUpdateMS = msFloat(bestPush) / float64(len(batches))
		row.PollUpdateMS = msFloat(bestPoll) / float64(len(batches))
		rows = append(rows, row)
	}
	return rows, nil
}

func pairSet(pairs []cfpq.Pair) map[cfpq.Pair]bool {
	out := make(map[cfpq.Pair]bool, len(pairs))
	for _, p := range pairs {
		out[p] = true
	}
	return out
}

// FormatLiveQuery renders rows as a readable table.
func FormatLiveQuery(w io.Writer, rows []LiveQueryRow) {
	backend := "sparse"
	if len(rows) > 0 {
		backend = rows[0].Backend
	}
	fmt.Fprintf(w, "Live queries: delta push (subscription) vs poll-and-diff, %s backend\n\n", backend)
	fmt.Fprintf(w, "%-14s %-10s %8s %8s %9s %10s %10s %9s\n",
		"Ontology", "grammar", "updates", "pairs", "push(ms)", "poll(ms)", "push/upd", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-10s %8d %8d %9.2f %10.2f %10.3f %8.1fx\n",
			r.Dataset, r.Grammar, r.Updates, r.NewPairs, r.PushMS, r.PollMS, r.PushUpdateMS, r.Speedup)
	}
}
