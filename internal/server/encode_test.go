package server

// Tests of the QueryAnswer wire encoder: its output must be byte-identical
// to writeJSON (encoding/json, HTML escaping off) for every answer shape and
// for node names that need escaping, whether appended whole or streamed in
// flushed chunks through a pooled buffer.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cfpq"
	"cfpq/internal/graph"
)

// stdAnswerJSON is the reference wire form: what writeJSON sends for a.
func stdAnswerJSON(t testing.TB, a *QueryAnswer) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, *a)
	return rec.Body.Bytes()
}

// appendJSON is the whole wire form of a from an encoder without a writer.
func appendJSON(a *QueryAnswer) []byte {
	var e answerEncoder
	e.appendJSON(a)
	return e.buf
}

// checkWireBytes compares appendJSON and a streamed writeAnswer with the
// reference encoding of a.
func checkWireBytes(t *testing.T, name string, a *QueryAnswer) {
	t.Helper()
	want := stdAnswerJSON(t, a)
	if got := appendJSON(a); !bytes.Equal(got, want) {
		t.Errorf("%s: appendJSON differs from writeJSON:\n got %s\nwant %s", name, got, want)
	}
	rec := httptest.NewRecorder()
	writeAnswer(rec, a)
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("%s: writeAnswer differs from writeJSON:\n got %.300s\nwant %.300s", name, got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: writeAnswer Content-Type %q", name, ct)
	}
}

// oddNames are node names every escaping rule of encoding/json touches,
// next to ones it leaves alone.
var oddNames = []string{
	`q"uote`, `back\slash`, "ctl\x01\x1f", "tab\tnl\n", "line\u2028sep\u2029",
	"bad\xffutf8\xc3", "<html>&amp;", "del\x7f", "π-ünï", "", "plain",
}

// wireTestService registers a chain over oddNames plus two unnamed nodes,
// whose names fall back to decimal ids, and the reach grammar.
func wireTestService(t *testing.T) *Service {
	t.Helper()
	s := New()
	n := len(oddNames) + 2
	g := graph.New(n)
	names := map[string]int{}
	for i, name := range oddNames {
		names[name] = i
	}
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, "knows", v+1)
	}
	if err := s.RegisterGraph("odd", g, names); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", "S -> knows | knows S"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQueryAnswerWireBytes(t *testing.T) {
	s := wireTestService(t)
	ctx := context.Background()
	last := fmt.Sprint(len(oddNames) + 1) // an unnamed node, addressed by id
	reqs := map[string]QueryRequest{
		"exists":            {Output: "exists", Sources: []string{`q"uote`}, Targets: []string{last}},
		"exists-false":      {Output: "exists", Sources: []string{last}, Targets: []string{"plain"}},
		"count":             {Output: "count"},
		"pairs":             {},
		"pairs-from":        {Sources: []string{"tab\tnl\n", "bad\xffutf8\xc3"}},
		"pairs-truncated":   {Limit: 3},
		"empty-restriction": {Sources: []string{}},
		"paths":             {Output: "paths", Sources: []string{`back\slash`}, Targets: []string{last}},
		"paths-truncated":   {Output: "paths", Sources: []string{"plain"}, Targets: []string{last}, Limit: 1, MaxPathLength: 3},
		"rpq-traced":        {Expr: "knows+", Sources: []string{"<html>&amp;"}, Trace: true},
	}
	for name, req := range reqs {
		req.Graph = "odd"
		if req.Expr == "" {
			req.Grammar, req.Nonterminal = "reach", "S"
		}
		ans, err := s.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkWireBytes(t, name, &ans)
	}

	// The shapes above must really cover what they are named for.
	trunc, err := s.Do(ctx, QueryRequest{Graph: "odd", Grammar: "reach", Nonterminal: "S", Limit: 3})
	if err != nil || !trunc.Truncated || len(trunc.Pairs) != 3 {
		t.Fatalf("limit 3: truncated=%v pairs=%d err=%v", trunc.Truncated, len(trunc.Pairs), err)
	}
	empty, err := s.Do(ctx, QueryRequest{Graph: "odd", Grammar: "reach", Nonterminal: "S", Sources: []string{}})
	if err != nil || empty.Pairs == nil || len(empty.Pairs) != 0 {
		t.Fatalf("empty restriction: pairs=%#v err=%v", empty.Pairs, err)
	}
	if bytes.Contains(appendJSON(&empty), []byte(`"pairs":`)) {
		t.Fatal("empty restriction: pairs not omitted")
	}
	traced, err := s.Do(ctx, QueryRequest{Graph: "odd", Expr: "knows+", Sources: []string{"plain"}, Trace: true})
	if err != nil || len(traced.Explain.Passes) == 0 {
		t.Fatalf("traced RPQ: passes=%d err=%v", len(traced.Explain.Passes), err)
	}

	count := 7
	checkWireBytes(t, "html-reason", &QueryAnswer{
		Output:  "count",
		Count:   &count,
		Explain: cfpq.Explain{Strategy: cfpq.StrategyFull, Reason: "rows > 64 & frontier < n", Frontier: 3, Saturated: true},
		Stats:   cfpq.Stats{Iterations: 2, Products: 5, Duration: 1234, PeakBytes: 99},
	})
	checkWireBytes(t, "nil-path", &QueryAnswer{
		Output: "paths", Count: &count,
		Paths: [][]PathStep{nil, {}, {{From: "a<b", Label: `l"x`, To: "\u2028"}}},
	})
	checkWireBytes(t, "zero", &QueryAnswer{})
}

// TestWriteAnswerConcurrent streams distinct answers, from a few pairs to
// many flush chunks, from several goroutines at once, so encoders pass
// between answers and goroutines through the pool.
func TestWriteAnswerConcurrent(t *testing.T) {
	const rounds = 20
	sizes := []int{3, 5000, 20000, 4000}
	workers := len(sizes)
	answers := make([]*QueryAnswer, workers)
	want := make([][]byte, workers)
	for w := range answers {
		n := sizes[w]
		pairs := make([]NamedPair, n)
		for k := range pairs {
			pairs[k] = NamedPair{From: fmt.Sprintf("w%d-%d", w, k), To: oddNames[(k+w)%len(oddNames)]}
		}
		answers[w] = &QueryAnswer{Output: "pairs", Count: &n, Pairs: pairs, Truncated: w == 0}
		want[w] = stdAnswerJSON(t, answers[w])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rec := httptest.NewRecorder()
				writeAnswer(rec, answers[w])
				if !bytes.Equal(rec.Body.Bytes(), want[w]) {
					t.Errorf("worker %d round %d: streamed answer differs from writeJSON", w, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// failingWriter fails every write after the first.
type failingWriter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, fmt.Errorf("client gone")
	}
	return w.ResponseRecorder.Write(p)
}

// TestWriteAnswerStopsOnWriteError checks that a client that stops reading
// costs one failed write, not one per remaining chunk.
func TestWriteAnswerStopsOnWriteError(t *testing.T) {
	n := 20000
	pairs := make([]NamedPair, n)
	for k := range pairs {
		pairs[k] = NamedPair{From: "from-node", To: "to-node"}
	}
	w := &failingWriter{ResponseRecorder: httptest.NewRecorder()}
	writeAnswer(w, &QueryAnswer{Output: "pairs", Count: &n, Pairs: pairs})
	if w.writes != 2 {
		t.Fatalf("writeAnswer made %d writes after the client failed, want it to stop at the first failure (2 writes)", w.writes)
	}
}

// TestPlainJSON checks the eight-bytes-a-step test against the bytewise
// definition for every byte value in every lane of a word and in the tail.
func TestPlainJSON(t *testing.T) {
	plain := func(s string) bool {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
				return false
			}
		}
		return true
	}
	for _, base := range []string{"abcdefghijk", "##########!", "]]]]]]]]]]]", "!!!!!!!!!!!!!!!!!"} {
		for pos := 0; pos < len(base); pos++ {
			for c := 0; c < 256; c++ {
				s := base[:pos] + string([]byte{byte(c)}) + base[pos+1:]
				if got, want := plainJSON(s), plain(s); got != want {
					t.Fatalf("plainJSON(%q) = %v, want %v", s, got, want)
				}
			}
		}
	}
}

func FuzzQueryAnswerJSON(f *testing.F) {
	f.Add("alice", "bob", 2, false)
	f.Add(`q"uote`, "back\\slash", 0, true)
	f.Add("ctl\x01", "line\u2028sep", -1, false)
	f.Add("bad\xff", "<a>&", 1<<40, true)
	f.Fuzz(func(t *testing.T, from, to string, count int, truncated bool) {
		a := &QueryAnswer{
			Output:    strings.ToUpper(to),
			Count:     &count,
			Pairs:     []NamedPair{{From: from, To: to}, {From: to, To: from}},
			Paths:     [][]PathStep{{{From: from, Label: to, To: from}}},
			Truncated: truncated,
			Explain:   cfpq.Explain{Strategy: cfpq.Strategy(from), Reason: to},
		}
		want := stdAnswerJSON(t, a)
		if got := appendJSON(a); !bytes.Equal(got, want) {
			t.Fatalf("appendJSON differs from writeJSON:\n got %q\nwant %q", got, want)
		}
	})
}
