package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// socialService registers the small named social graph the query-operation
// tests use, with a Knows -> knows Knows | knows grammar.
func socialService(t *testing.T) *Service {
	t.Helper()
	s := New()
	edges := `
alice	knows	bob
bob	knows	carol
carol	knows	dora
`
	if _, err := s.LoadGraph("social", "edgelist", strings.NewReader(edges)); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGrammar("reach", "Knows -> knows Knows | knows"); err != nil {
		t.Fatal(err)
	}
	return s
}

func target() Target { return Target{Graph: "social", Grammar: "reach"} }

func TestServiceQueryBatch(t *testing.T) {
	s := socialService(t)
	answers, err := s.QueryBatch(ctx, target(), []BatchQuerySpec{
		{Op: "has", Nonterminal: "Knows", From: "alice", To: "dora"},
		{Op: "count", Nonterminal: "Knows"},
		{Nonterminal: "Knows"}, // default op: relation
		{Op: "count-from", Nonterminal: "Knows", Sources: []string{"alice"}},
		{Op: "relation-from", Nonterminal: "Knows", Sources: []string{"bob"}},
		{Op: "has", Nonterminal: "Knows", From: "nobody", To: "dora"}, // per-query error
		{Op: "count", Nonterminal: "Nope"},                            // per-query error
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 7 {
		t.Fatalf("got %d answers, want 7", len(answers))
	}
	if answers[0].Has == nil || !*answers[0].Has {
		t.Errorf("has(alice,dora) = %+v, want true", answers[0])
	}
	// Transitive closure of the 4-node chain: 3+2+1 = 6 pairs.
	if answers[1].Count == nil || *answers[1].Count != 6 {
		t.Errorf("count = %+v, want 6", answers[1])
	}
	if answers[2].Count == nil || *answers[2].Count != 6 || len(answers[2].Pairs) != 6 {
		t.Errorf("relation = %+v, want 6 pairs", answers[2])
	}
	if answers[3].Count == nil || *answers[3].Count != 3 {
		t.Errorf("count-from alice = %+v, want 3", answers[3])
	}
	wantBob := []NamedPair{{From: "bob", To: "carol"}, {From: "bob", To: "dora"}}
	if !reflect.DeepEqual(answers[4].Pairs, wantBob) {
		t.Errorf("relation-from bob = %v, want %v", answers[4].Pairs, wantBob)
	}
	if answers[5].Error == "" {
		t.Errorf("unknown node: expected per-query error, got %+v", answers[5])
	}
	if answers[6].Error == "" {
		t.Errorf("unknown non-terminal: expected per-query error, got %+v", answers[6])
	}
}

func TestServiceQueryBatchRegistryErrors(t *testing.T) {
	s := socialService(t)
	if _, err := s.QueryBatch(ctx, Target{Graph: "nope", Grammar: "reach"}, []BatchQuerySpec{{Nonterminal: "Knows"}}); err == nil {
		t.Error("unknown graph: expected error")
	}
	if _, err := s.QueryBatch(ctx, Target{Graph: "social", Grammar: "nope"}, []BatchQuerySpec{{Nonterminal: "Knows"}}); err == nil {
		t.Error("unknown grammar: expected error")
	}
	if _, err := s.QueryBatch(ctx, Target{Graph: "social", Grammar: "reach", Backend: "quantum"}, []BatchQuerySpec{{Nonterminal: "Knows"}}); err == nil {
		t.Error("unknown backend: expected error")
	}
}

func TestServiceDoSources(t *testing.T) {
	s := socialService(t)
	ans, err := s.Do(ctx, QueryRequest{Graph: "social", Grammar: "reach", Nonterminal: "Knows", Sources: []string{"carol"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []NamedPair{{From: "carol", To: "dora"}}
	if !reflect.DeepEqual(ans.Pairs, want) {
		t.Errorf("pairs from carol = %v, want %v", ans.Pairs, want)
	}
	ans, err = s.Do(ctx, QueryRequest{Graph: "social", Grammar: "reach", Nonterminal: "Knows", Output: "count", Sources: []string{"alice", "bob"}})
	if err != nil {
		t.Fatal(err)
	}
	if *ans.Count != 5 {
		t.Errorf("count from alice,bob = %d, want 5", *ans.Count)
	}
	if _, err := s.Do(ctx, QueryRequest{Graph: "social", Grammar: "reach", Nonterminal: "Knows", Sources: []string{"nobody"}}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown source: err = %v, want ErrNotFound", err)
	}
}

func TestHTTPQueryBatchAndSources(t *testing.T) {
	s := socialService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	// Batched POST.
	body, _ := json.Marshal(map[string]any{
		"graph":   "social",
		"grammar": "reach",
		"queries": []BatchQuerySpec{
			{Op: "count", Nonterminal: "Knows"},
			{Op: "relation-from", Nonterminal: "Knows", Sources: []string{"carol"}},
			{Op: "count", Nonterminal: "Nope"},
		},
	})
	resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Results []BatchAnswer `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Count == nil || *out.Results[0].Count != 6 {
		t.Errorf("batch count = %+v, want 6", out.Results[0])
	}
	if len(out.Results[1].Pairs) != 1 || out.Results[1].Pairs[0].To != "dora" {
		t.Errorf("batch relation-from = %+v", out.Results[1])
	}
	if out.Results[2].Error == "" {
		t.Errorf("batch bad query: expected per-query error, got %+v", out.Results[2])
	}

	// GET with sources restriction.
	resp2, err := http.Get(srv.URL + "/v1/query?graph=social&grammar=reach&nonterminal=Knows&op=count&sources=alice,bob")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var cnt struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&cnt); err != nil {
		t.Fatal(err)
	}
	if cnt.Count != 5 {
		t.Errorf("GET sources count = %d, want 5", cnt.Count)
	}

	// A trailing comma is tolerated; a present-but-empty restriction is an
	// empty frontier (zero pairs), not a silent fall-through to the
	// unrestricted answer.
	resp3, err := http.Get(srv.URL + "/v1/query?graph=social&grammar=reach&nonterminal=Knows&op=count&sources=alice,")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("trailing-comma sources: status %d, want 200", resp3.StatusCode)
	}
	for _, empty := range []string{"sources=", "sources=,", "sources=%20"} {
		resp, err := http.Get(srv.URL + "/v1/query?graph=social&grammar=reach&nonterminal=Knows&op=count&" + empty)
		if err != nil {
			t.Fatal(err)
		}
		var cnt struct {
			Count int `json:"count"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&cnt); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || cnt.Count != 0 {
			t.Errorf("empty restriction %q: status %d count %d, want 200 with 0 pairs", empty, resp.StatusCode, cnt.Count)
		}
	}

	// Malformed batches.
	for _, bad := range []string{
		`{"graph":"social","grammar":"reach","queries":[]}`,
		`{"grammar":"reach","queries":[{"nonterminal":"Knows"}]}`,
		`not json`,
	} {
		resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad batch %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
