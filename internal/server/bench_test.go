package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"cfpq/internal/dataset"
	"cfpq/internal/graph"
	"cfpq/internal/graphgen"
)

// benchDumpService registers the two graphs cfpqd's read benchmark dumps:
// a 10⁴-node scale-free graph under the Dyck grammar, with node names
// "n<id>", and the paper's g3 ontology under Query 1 (same-generation).
func benchDumpService(b *testing.B) *Service {
	b.Helper()
	s := New()
	g, err := graphgen.Generate(graphgen.Spec{Kind: graphgen.KindScaleFree, Nodes: 10_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	names := make(map[string]int, g.Nodes())
	for v := 0; v < g.Nodes(); v++ {
		names[fmt.Sprintf("n%d", v)] = v
	}
	if err := s.RegisterGraph("scalefree", g, names); err != nil {
		b.Fatal(err)
	}
	d, ok := dataset.ByName("g3")
	if !ok {
		b.Fatal("dataset g3 missing")
	}
	var doc bytes.Buffer
	if err := graph.WriteNTriples(&doc, d.TripleSet()); err != nil {
		b.Fatal(err)
	}
	if _, err := s.LoadGraph("g3", "ntriples", &doc); err != nil {
		b.Fatal(err)
	}
	for name, text := range map[string]string{
		"dyck": "S -> a S b | a b\n",
		"q1":   "S -> subClassOf_r S subClassOf\nS -> type_r S type\nS -> subClassOf_r subClassOf\nS -> type_r type\n",
	} {
		if err := s.RegisterGrammar(name, text); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkServeQueryDump measures POST /v1/query end to end against an
// in-process server with a warm index: full pair dumps of both graphs, and
// a pairs read restricted to one source. It reports the answer size, and
// the allocations of server and client together.
func BenchmarkServeQueryDump(b *testing.B) {
	s := benchDumpService(b)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	ctx := context.Background()
	dump := func(graphName, grammar string) QueryRequest {
		return QueryRequest{Graph: graphName, Grammar: grammar, Nonterminal: "S"}
	}
	full, err := s.Do(ctx, dump("scalefree", "dyck")) // builds and caches the index
	if err != nil || len(full.Pairs) == 0 {
		b.Fatalf("scale-free dump: %d pairs, %v", len(full.Pairs), err)
	}
	from := dump("scalefree", "dyck")
	from.Sources = []string{full.Pairs[0].From}
	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"scalefree-dump", dump("scalefree", "dyck")},
		{"g3-dump", dump("g3", "q1")},
		{"scalefree-pairs-from", from},
	}
	for _, c := range cases {
		body, err := json.Marshal(c.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			post := func() int64 {
				resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				defer resp.Body.Close()
				n, err := io.Copy(io.Discard, resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, %v", resp.StatusCode, err)
				}
				return n
			}
			size := post() // warms the index and the connection
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			b.ReportMetric(float64(size), "bytes/answer")
		})
	}
}
