package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cfpq"
	"cfpq/internal/graph"
	"cfpq/internal/server"
	"cfpq/internal/store"
)

type workloadKind int

const (
	kindBuild workloadKind = iota // one client rebuilding one index
	kindRead                      // two clients reading prebuilt indexes
	kindLive                      // one writer and one reader on a durable service
)

// workload is one set of inputs and one traffic mix.
type workload struct {
	name   string
	kind   workloadKind
	inputs func() []graphInput
	// tailQ is the fixed tail percentile of tail_ms. minOps is the least
	// number of ops a build or read phase completes, chosen so that at
	// least ten samples lie beyond tailQ; a live phase runs a fixed script
	// instead.
	tailQ  float64
	minOps int
	// light and heavy select the ops whose medians are light_p50_ms and
	// heavy_p50_ms.
	light, heavy func(k opKind, in graphInput) bool
	// setups is how many times a run sets the service up; setup_s is the
	// median.
	setups  int
	clients int
	mix     string
}

func classIn(classes ...string) func(opKind, graphInput) bool {
	return func(k opKind, _ graphInput) bool { return slices.Contains(classes, k.class()) }
}

func mixedInputs() []graphInput {
	return []graphInput{scaleFreeInput(), ontologyInput()}
}

var workloads = []*workload{
	{
		// Builds cycle over the four inputs. The chain's closure is bound by
		// the matrix dimension, the other three by the work over passes;
		// they are the heavy and the light builds.
		name: "build", kind: kindBuild,
		inputs: func() []graphInput {
			return []graphInput{chainInput(), gridInput(), scaleFreeInput(), ontologyInput()}
		},
		tailQ: 0.9, minOps: 100,
		light:  func(k opKind, in graphInput) bool { return k == opBuild && in.kase != "chain" },
		heavy:  func(k opKind, in graphInput) bool { return k == opBuild && in.kase == "chain" },
		setups: 5, clients: 1,
		mix: "build=100% over chain, grid, scalefree, ontology in turn (PUT grammar, then POST /v1/query output=count)",
	},
	{
		name: "read-mix", kind: kindRead, inputs: mixedInputs,
		tailQ: 0.999, minOps: 10000, light: classIn("point", "pairs"), heavy: classIn("dump"),
		setups: 5, clients: 2, mix: mixString(readMix),
	},
	{
		name: "live-mix", kind: kindLive, inputs: mixedInputs,
		tailQ: 0.99, light: classIn("point", "pairs"), heavy: classIn("write"),
		setups: 5, clients: 2,
		mix: fmt.Sprintf("writer: write=100%% (%d edges a batch); reader: %s", edgesPerWrite, mixString(liveMix)),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Live-mix tuning: the writer's script holds liveWritesPerSecond batches
// per second of --seconds, and the reader reads readsPerWrite times per
// batch. The store compacts a graph's WAL past liveCompactBytes, so
// compaction cycles several times a run.
const (
	liveWritesPerSecond = 8
	readsPerWrite       = 25
	liveCompactBytes    = 16 << 10
)

// liveGate keeps the live writer and reader in step, so every run has the
// same ratio of reads to writes however fast either side is: batch k goes
// out once the reader has finished k quanta of readsPerWrite reads, and the
// reader starts quantum q only after q-1 batches are acknowledged. Neither
// side can wait for the other while the other waits for it. A side that
// stops releases the other.
type liveGate struct {
	mu                     sync.Mutex
	cond                   *sync.Cond
	reads, writes          int
	readerLeft, writerLeft bool
}

func newLiveGate() *liveGate {
	g := &liveGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *liveGate) waitReads(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.reads < n && !g.readerLeft {
		g.cond.Wait()
	}
}

func (g *liveGate) waitWrites(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.writes < n && !g.writerLeft {
		g.cond.Wait()
	}
}

// done records one finished op of a side.
func (g *liveGate) done(write bool) {
	g.mu.Lock()
	if write {
		g.writes++
	} else {
		g.reads++
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// leave releases whatever the other side waits for.
func (g *liveGate) leave(write bool) {
	g.mu.Lock()
	if write {
		g.writerLeft = true
	} else {
		g.readerLeft = true
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// opRec is what one completed op reports.
type opRec struct {
	kind     opKind
	graph    int
	lat      time.Duration
	bytes    int
	ok       bool
	eval     time.Duration // the answer's stats.duration_ns
	products int
	frontier int
	cached   bool       // explain.strategy was cached-read
	upd      cfpq.Stats // writes: update_stats
	build    cfpq.Stats // builds in a traced phase: the index's build stats
}

// phaseResult is one measured phase.
type phaseResult struct {
	recs    []opRec
	elapsed time.Duration
	alloc   uint64 // bytes allocated by the whole process during the phase
}

// env is one set-up service.
type env struct {
	h      *harness
	dir    string // data directory of a durable service
	loadMs map[string]float64
	closed bool
}

func (e *env) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	return e.h.close()
}

// discard stops the service and deletes its data directory. Nothing reads
// either again, so their errors change nothing.
func (e *env) discard() {
	_ = e.close()
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// runner carries one run's state.
type runner struct {
	cfg    config
	w      *workload
	t0     time.Time
	inputs []graphInput

	want   []int    // build workloads: expected |R_S| per graph
	checks []bounds // per graph
	expr   exprBounds
	exprGI int
	gens   []*opGen
	writes []op

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setup generates the inputs, starts a service, uploads the graphs and
// grammars and builds every index once. The returned duration covers all of
// it.
func (r *runner) setup(ctx context.Context, tr *tracer) (*env, []graphInput, time.Duration, error) {
	start := time.Now()
	trace := tr.newTrace()
	inputs := r.w.inputs()
	tr.timed(trace, 0, "setup.generate", start, time.Since(start), nil)
	svc := server.New()
	e := &env{loadMs: map[string]float64{}}
	var st *store.Store
	if r.w.kind == kindLive {
		dir, err := os.MkdirTemp(r.cfg.out, "data-")
		if err != nil {
			return nil, nil, 0, err
		}
		e.dir = dir
		if st, err = store.Open(dir, store.Options{CompactBytes: liveCompactBytes}); err != nil {
			os.RemoveAll(dir)
			return nil, nil, 0, fmt.Errorf("opening store: %w", err)
		}
		if err := svc.AttachStore(ctx, st); err != nil {
			st.Close()
			os.RemoveAll(dir)
			return nil, nil, 0, fmt.Errorf("attaching store: %w", err)
		}
	}
	h, err := startHarness(svc, st)
	if err != nil {
		if st != nil {
			st.Close()
			os.RemoveAll(e.dir)
		}
		return nil, nil, 0, err
	}
	e.h = h
	c := newClient(h.base)
	defer c.close()
	for _, in := range inputs {
		t := time.Now()
		lat, err := c.put("/v1/graphs/"+in.name+"?format="+in.format, in.doc)
		if err != nil {
			e.discard()
			return nil, nil, 0, err
		}
		e.loadMs[in.name] = ms(lat)
		tr.timed(trace, 0, "graph.load."+in.name, t, lat, nil)
		t = time.Now()
		if lat, err = c.put("/v1/grammars/"+in.grammar, []byte(in.text)); err != nil {
			e.discard()
			return nil, nil, 0, err
		}
		tr.timed(trace, 0, "graph.grammar."+in.grammar, t, lat, nil)
		t = time.Now()
		if lat, _, err = c.callJSON(http.MethodPost, "/v1/query", countRequest(in), nil); err != nil {
			e.discard()
			return nil, nil, 0, err
		}
		tr.timed(trace, 0, "server.prebuild."+in.name, t, lat, nil)
	}
	return e, inputs, time.Since(start), nil
}

func countRequest(in graphInput) server.QueryRequest {
	return server.QueryRequest{Graph: in.name, Grammar: in.grammar, Nonterminal: "S", Output: string(cfpq.OutputCount)}
}

// prepareChecks computes the reference answers, outside any timing: closed
// forms where the topology has one, otherwise a from-scratch evaluation on
// another backend. For live-mix it also fixes the writer's script and
// evaluates the graphs as they will stand after it.
func (r *runner) prepareChecks(ctx context.Context) error {
	var initial []*oracle
	var graphs []*graph.Graph
	for gi, in := range r.inputs {
		if r.w.kind == kindBuild && in.closedForm >= 0 {
			r.want = append(r.want, in.closedForm)
			continue
		}
		g, ids, err := parseInput(in)
		if err != nil {
			return err
		}
		pairs, err := referencePairs(ctx, g, in.text)
		if err != nil {
			return err
		}
		o := newOracle(g.Nodes(), ids, pairs)
		r.want = append(r.want, o.count)
		r.checks = append(r.checks, exact(o))
		initial = append(initial, o)
		graphs = append(graphs, g)
		if in.name == "scalefree" {
			r.exprGI = gi
		}
	}
	switch r.w.kind {
	case kindRead:
		for ci := 0; ci < r.w.clients; ci++ {
			r.gens = append(r.gens, newOpGen(r.cfg.seed, ci, readMix, initial, r.exprGI))
		}
	case kindLive:
		r.gens = []*opGen{newOpGen(r.cfg.seed, 0, liveMix, initial, r.exprGI)}
		batches := max(2, int(liveWritesPerSecond*r.cfg.seconds))
		r.writes = writeScript(r.cfg.seed, batches, r.inputs, initial)
		finals := make([]*graph.Graph, len(graphs))
		for gi, g := range graphs {
			finals[gi] = g.Clone()
		}
		for _, w := range r.writes {
			o := initial[w.graph]
			for _, e := range w.edges {
				finals[w.graph].AddEdge(o.ids[e.From], e.Label, o.ids[e.To])
			}
		}
		for gi, g := range finals {
			pairs, err := referencePairs(ctx, g, r.inputs[gi].text)
			if err != nil {
				return err
			}
			r.checks[gi] = bounds{lo: initial[gi], hi: newOracle(g.Nodes(), initial[gi].ids, pairs)}
		}
		lo, err := referenceExprCounts(ctx, graphs[r.exprGI], exprQuery)
		if err != nil {
			return err
		}
		hi, err := referenceExprCounts(ctx, finals[r.exprGI], exprQuery)
		if err != nil {
			return err
		}
		r.expr = exprBounds{ids: initial[r.exprGI].ids, lo: lo, hi: hi}
	}
	return nil
}

// measure runs one closed-loop phase: every client sends its next request
// when the previous answer has arrived. Build and read phases run for
// seconds and at least minOps ops. A live phase runs the writer's script
// from wlo to whi and readsPerWrite reads per batch, in step (liveGate).
func (r *runner) measure(ctx context.Context, e *env, tr *tracer, seconds float64, wlo, whi int) phaseResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var done atomic.Int64
	gate := newLiveGate()
	recs := make([][]opRec, r.w.clients)
	var wg sync.WaitGroup
	for ci := 0; ci < r.w.clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			live := r.w.kind == kindLive
			writer := live && ci == 0
			if live {
				defer gate.leave(writer)
			}
			c := newClient(e.h.base)
			defer c.close()
			for k := 0; ctx.Err() == nil; k++ {
				var o op
				switch {
				case writer:
					if wlo+k >= whi {
						return
					}
					gate.waitReads(k * readsPerWrite)
					o = r.writes[wlo+k]
				case live:
					if k >= (whi-wlo)*readsPerWrite {
						return
					}
					if k%readsPerWrite == 0 {
						gate.waitWrites(k/readsPerWrite - 1)
					}
					o = r.gens[0].next()
				default:
					// Builds stop after a whole round over the inputs,
					// reads after a whole deck.
					atBoundary := k%len(r.inputs) == 0
					if r.w.kind != kindBuild {
						atBoundary = r.gens[ci].deckDone()
					}
					if !time.Now().Before(deadline) && done.Load() >= int64(r.w.minOps) && atBoundary {
						return
					}
					if r.w.kind == kindBuild {
						// Every build starts on a freshly collected heap, so
						// the garbage of the previous one does not pace its
						// collector.
						runtime.GC()
						o = op{kind: opBuild, graph: k % len(r.inputs)}
					} else {
						o = r.gens[ci].next()
					}
				}
				recs[ci] = append(recs[ci], r.do(c, o, tr))
				done.Add(1)
				if live {
					gate.done(writer)
				}
			}
		}()
	}
	wg.Wait()
	p := phaseResult{elapsed: time.Since(start)}
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	for _, rs := range recs {
		p.recs = append(p.recs, rs...)
	}
	return p
}

// do sends one op, checks its answer and records its spans on tr.
func (r *runner) do(c *client, o op, tr *tracer) opRec {
	rec := opRec{kind: o.kind, graph: o.graph}
	in := r.inputs[o.graph]
	trace := tr.newTrace()
	start := time.Now()
	var err error
	switch o.kind {
	case opBuild:
		err = r.doBuild(c, in, o, tr, &rec)
	case opWrite:
		var res server.UpdateResult
		rec.lat, rec.bytes, err = c.callJSON(http.MethodPost, "/v1/graphs/"+in.name+"/edges", map[string]any{"edges": o.edges}, &res)
		rec.upd = res.UpdateStats
		if err == nil && (res.NewNodes != 0 || res.Invalidated != 0 || res.Patched != 1) {
			err = fmt.Errorf("write on %s: new_nodes=%d invalidated=%d patched=%d, want 0/0/1", in.name, res.NewNodes, res.Invalidated, res.Patched)
		}
	default:
		err = r.doQuery(c, in, o, tr != nil, &rec)
	}
	rec.ok = err == nil
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil {
		r.fail("%s: %v", o.kind, err)
	}
	if tr != nil {
		root := tr.timed(trace, 0, "http."+o.kind.String(), start, rec.lat, map[string]int64{"bytes": int64(rec.bytes)})
		switch o.kind {
		case opBuild:
			tr.reported(trace, root, "core.build", rec.build.Duration, map[string]int64{"passes": int64(rec.build.Iterations), "products": int64(rec.build.Products)})
		case opWrite:
			tr.reported(trace, root, "core.update", rec.upd.Duration, map[string]int64{"passes": int64(rec.upd.Iterations), "products": int64(rec.upd.Products)})
		case opExpr:
			tr.reported(trace, root, "core.frontier", rec.eval, map[string]int64{"rows": int64(rec.frontier), "products": int64(rec.products)})
		default:
			tr.reported(trace, root, "cfpq.read", rec.eval, map[string]int64{"products": int64(rec.products)})
		}
	}
	return rec
}

// doBuild drops the index by re-registering its grammar, then asks the count
// that rebuilds it. In a traced phase it reads the build's stats from
// GET /v1/stats afterwards, outside the timed interval.
func (r *runner) doBuild(c *client, in graphInput, o op, tr *tracer, rec *opRec) error {
	lat, err := c.put("/v1/grammars/"+in.grammar, []byte(in.text))
	rec.lat = lat
	if err != nil {
		return err
	}
	req := countRequest(in)
	req.Trace = tr != nil
	var ans server.QueryAnswer
	lat, rec.bytes, err = c.callJSON(http.MethodPost, "/v1/query", req, &ans)
	rec.lat += lat
	if err != nil {
		return err
	}
	rec.eval, rec.cached = ans.Stats.Duration, ans.Explain.Strategy == cfpq.StrategyCachedRead
	if ans.Count == nil {
		return fmt.Errorf("build answer on %s without count", in.name)
	}
	if *ans.Count != r.want[o.graph] {
		return fmt.Errorf("build count on %s = %d, reference says %d", in.name, *ans.Count, r.want[o.graph])
	}
	if tr != nil {
		stats, err := indexStats(c)
		if err != nil {
			return err
		}
		for _, st := range stats {
			if st.Graph == in.name && st.Grammar == in.grammar {
				rec.build = st.Build
			}
		}
	}
	return nil
}

func indexStats(c *client) ([]server.IndexStats, error) {
	body, err := c.get("/v1/stats")
	if err != nil {
		return nil, err
	}
	var out struct {
		Indexes []server.IndexStats `json:"indexes"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return out.Indexes, nil
}

// doQuery sends one read and checks the answer against the reference.
func (r *runner) doQuery(c *client, in graphInput, o op, traced bool, rec *opRec) error {
	req := server.QueryRequest{Graph: in.name, Grammar: in.grammar, Nonterminal: "S", Trace: traced}
	switch o.kind {
	case opExists:
		req.Output, req.Sources, req.Targets = string(cfpq.OutputExists), []string{o.from}, []string{o.to}
	case opCount:
		req.Output = string(cfpq.OutputCount)
	case opPairsFrom:
		req.Sources = []string{o.from}
	case opPaged:
		req.Limit = pagedLimit
	case opExpr:
		req = server.QueryRequest{Graph: in.name, Expr: exprQuery, Sources: []string{o.from}, Output: string(cfpq.OutputCount), Trace: traced}
	}
	var ans server.QueryAnswer
	var err error
	rec.lat, rec.bytes, err = c.callJSON(http.MethodPost, "/v1/query", req, &ans)
	if err != nil {
		return err
	}
	rec.eval, rec.products, rec.frontier = ans.Stats.Duration, ans.Stats.Products, ans.Explain.Frontier
	rec.cached = ans.Explain.Strategy == cfpq.StrategyCachedRead
	b := r.checks[o.graph]
	switch o.kind {
	case opExists:
		if ans.Exists == nil {
			return fmt.Errorf("exists answer without exists")
		}
		return b.checkExists(o.from, o.to, *ans.Exists)
	case opCount:
		if ans.Count == nil {
			return fmt.Errorf("count answer without count")
		}
		return b.checkCount(*ans.Count)
	case opPairsFrom:
		return b.checkPairsFrom(o.from, ans.Pairs)
	case opPaged:
		return b.checkPaged(pagedLimit, ans.Pairs, ans.Truncated)
	case opDump:
		return b.checkDump(ans.Pairs)
	case opExpr:
		if ans.Count == nil {
			return fmt.Errorf("expr answer without count")
		}
		return r.expr.checkCountFrom(o.from, *ans.Count)
	}
	return nil
}

// checkDurability drops the live service, reopens its data directory into a
// fresh one and checks that every acknowledged edge survived and that each
// relation's count equals a from-scratch evaluation of the recovered graph.
// Each graph contributes two checks to attempted.
func (r *runner) checkDurability(ctx context.Context, e *env, acked []op) error {
	if err := e.close(); err != nil {
		return fmt.Errorf("stopping the live service: %w", err)
	}
	st, err := store.Open(e.dir, store.Options{CompactBytes: liveCompactBytes})
	if err != nil {
		return fmt.Errorf("reopening the store: %w", err)
	}
	defer st.Close()
	svc := server.New()
	if err := svc.AttachStore(ctx, st); err != nil {
		return fmt.Errorf("attaching the reopened store: %w", err)
	}
	allAcked := len(acked) == len(r.writes)
	for gi, in := range r.inputs {
		r.mu.Lock()
		r.attempted += 2
		r.mu.Unlock()
		g, byID, _, err := st.GraphState(in.name)
		if err != nil {
			r.fail("durability: graph %s: %v", in.name, err)
			r.fail("durability: graph %s: no count", in.name)
			continue
		}
		ids := make(map[string]int, len(byID))
		for id, name := range byID {
			ids[name] = id
		}
		missing := 0
		for _, w := range acked {
			if w.graph != gi {
				continue
			}
			for _, ed := range w.edges {
				from, okF := ids[ed.From]
				to, okT := ids[ed.To]
				if !okF || !okT || !g.HasEdge(from, ed.Label, to) {
					missing++
				}
			}
		}
		if missing > 0 {
			r.fail("durability: %d acknowledged edges missing from %s", missing, in.name)
		}
		pairs, err := referencePairs(ctx, g, in.text)
		if err != nil {
			return err
		}
		ans, err := svc.Do(ctx, countRequest(in))
		switch {
		case err != nil:
			r.fail("durability: count on reopened %s: %v", in.name, err)
		case *ans.Count != len(pairs):
			r.fail("durability: reopened %s counts %d, from-scratch evaluation %d", in.name, *ans.Count, len(pairs))
		case allAcked && *ans.Count != r.checks[gi].hi.count:
			r.fail("durability: reopened %s counts %d, the scripted final graph %d", in.name, *ans.Count, r.checks[gi].hi.count)
		}
	}
	return nil
}

// scrape reads the counters the program publishes about its store.
type scrape struct {
	fsyncSum, fsyncCount, fsyncs, walBytes float64
	compactions                            int64
}

func readScrape(c *client, durable bool) (scrape, error) {
	var s scrape
	if !durable {
		return s, nil
	}
	body, err := c.get("/metrics")
	if err != nil {
		return s, err
	}
	p := parseProm(body)
	s.fsyncSum, s.fsyncCount = p["cfpqd_wal_fsync_duration_seconds_sum"], p["cfpqd_wal_fsync_duration_seconds_count"]
	s.fsyncs, s.walBytes = p["cfpqd_wal_fsyncs_total"], p["cfpqd_wal_written_bytes_total"]
	body, err = c.get("/v1/store/stats")
	if err != nil {
		return s, err
	}
	var st store.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return s, fmt.Errorf("decoding /v1/store/stats: %w", err)
	}
	s.compactions = st.Compactions
	return s, nil
}

// replay evaluates each input's build through the library with the pass
// trace on, reps times, and sets matrix.product_us.<case> (pass time per
// product over all replays) and matrix.alloc_mb.<case> (median bytes
// allocated by one replay).
func replay(ctx context.Context, inputs []graphInput, reps int, tr *tracer, m map[string]float64) error {
	for _, in := range inputs {
		g, _, err := parseInput(in)
		if err != nil {
			return err
		}
		gram, err := cfpq.ParseGrammar(in.text)
		if err != nil {
			return err
		}
		var passTime time.Duration
		products := 0
		var allocs []float64
		for rep := 0; rep < reps; rep++ {
			trace := tr.newTrace()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			res, err := cfpq.NewEngine(cfpq.Sparse).Do(ctx, cfpq.Request{Graph: g, Grammar: gram, Nonterminal: "S", Output: cfpq.OutputCount, Trace: true})
			lat := time.Since(start)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return fmt.Errorf("replaying %s: %w", in.kase, err)
			}
			alloc := m1.TotalAlloc - m0.TotalAlloc
			allocs = append(allocs, float64(alloc)/(1<<20))
			root := tr.timed(trace, 0, "cfpq.replay."+in.kase, start, lat, map[string]int64{"alloc_bytes": int64(alloc)})
			for _, p := range res.Explain.Passes {
				passTime += p.Duration
				products += p.Products
				tr.reported(trace, root, "core.pass."+p.Phase, p.Duration, map[string]int64{"pass": int64(p.Pass), "products": int64(p.Products)})
			}
		}
		if products > 0 {
			m["matrix.product_us."+in.kase] = us(passTime) / float64(products)
		}
		m["matrix.alloc_mb."+in.kase] = median(allocs)
	}
	return nil
}
