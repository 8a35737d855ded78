// Command perfbench is the end-to-end benchmark of cfpqd. Each run starts an
// in-process service (server.New behind server.Handler on loopback), loads
// inputs generated from --seed, drives one workload over HTTP from closed-loop
// clients, checks every answer against a reference evaluation, and prints
// its metrics by name and unit. The last line of standard output is the
// result object; the lines before it stamp the run and break it down by op
// class.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics of one untraced
// phase. With --trace 1 the run measures an untraced and a traced phase and
// the result carries the per-layer metrics of the traced one, plus the
// difference the tracing made to every end-to-end metric; the spans are
// written under .bench_build/perfbench.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"cfpq"
	"cfpq/internal/server"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, identical on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"light_p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"heavy_p50_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
}

// Input families and graph names the per-layer metrics are keyed by.
var (
	cases      = []string{"chain", "grid", "scalefree", "ontology"}
	graphNames = []string{"chain", "grid", "scalefree", "g3"}
)

// perLayer lists the metrics of a traced run. A layer metric of work the
// workload does not do reads 0.
var perLayer = slices.Concat([]metricDef{
	{"server.point_self_us", "us"},
	{"server.pairs_self_us", "us"},
	{"server.dump_self_us", "us"},
	{"server.dump_bytes", "bytes"},
	{"server.write_self_ms", "ms"},
	{"server.build_self_ms", "ms"},
	{"cfpq.point_us", "us"},
	{"cfpq.pairs_us", "us"},
	{"cfpq.dump_us", "us"},
	{"cfpq.cached_read_share", "ratio"},
	{"cfpq.read_products", "count"},
},
	keyed("core.build_ms", "ms", cases),
	keyed("core.build_passes", "count", cases),
	keyed("core.build_products", "count", cases),
	keyed("core.build_peak_mb", "MiB", cases),
	[]metricDef{
		{"core.update_ms", "ms"},
		{"core.update_passes", "count"},
		{"core.update_products", "count"},
		{"core.frontier_ms", "ms"},
		{"core.frontier_rows", "count"},
		{"core.frontier_products", "count"},
	},
	keyed("matrix.product_us", "us", cases),
	keyed("matrix.alloc_mb", "MiB", cases),
	[]metricDef{
		{"store.fsync_ms", "ms"},
		{"store.fsyncs_per_write", "count"},
		{"store.wal_bytes_per_write", "bytes"},
		{"store.compactions", "count"},
	},
	keyed("graph.load_ms", "ms", graphNames),
	keyed("trace.overhead", "", nil),
)

// keyed names one metric per key, prefix.key. With no keys it names the
// tracing overhead of every end-to-end metric instead.
func keyed(prefix, unit string, keys []string) []metricDef {
	var out []metricDef
	if keys == nil {
		for _, m := range endToEnd {
			out = append(out, metricDef{prefix + "." + m.name, m.unit})
		}
		return out
	}
	for _, k := range keys {
		out = append(out, metricDef{prefix + "." + k, unit})
	}
	return out
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for data directories and span dumps
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp identifies the run: machine, build and workload settings.
type stamp struct {
	GoVersion    string  `json:"go_version"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPU          string  `json:"cpu"`
	Revision     string  `json:"vcs_revision"`
	Modified     string  `json:"vcs_modified"`
	Date         string  `json:"date"`
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	Clients      int     `json:"clients"`
	Mix          string  `json:"mix"`
	TailQuantile float64 `json:"tail_quantile"`
}

func newStamp(cfg config, w *workload) stamp {
	s := stamp{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Revision: "unknown", Modified: "unknown", Date: time.Now().UTC().Format(time.RFC3339),
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Clients: w.clients, Mix: w.mix, TailQuantile: w.tailQ,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Revision = kv.Value
			case "vcs.modified":
				s.Modified = kv.Value
			}
		}
	}
	return s
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// outDir holds a run's data directories and span dumps, relative to the
// directory the benchmark runs in.
const outDir = ".bench_build/perfbench"

// runLimit bounds a whole run; a run that overstays it is abandoned.
const runLimit = 170 * time.Second

func main() {
	timer := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(2)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	timer.Stop()
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workloadName := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs and op scripts")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*workloadName)
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: outDir}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit-10*time.Second)
	defer cancel()
	res, detail, err := execute(ctx, cfg, w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, line := range []any{map[string]any{"stamp": newStamp(cfg, w)}, map[string]any{"detail": detail}, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	if !res.Correct {
		for _, f := range detail.Failures {
			fmt.Fprintf(stderr, "perfbench: failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// classDetail summarises one op class of a phase.
type classDetail struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms"`
	P99 float64 `json:"p99_ms"`
	Max float64 `json:"max_ms"`
}

// detail is the per-class breakdown printed before the result.
type detail struct {
	Phases    map[string]map[string]classDetail `json:"phases"`
	Tail      string                            `json:"tail"`
	FailRatio float64                           `json:"fail_ratio"`
	Failures  []string                          `json:"failures,omitempty"`
	Spans     string                            `json:"spans,omitempty"`
}

func classify(p phaseResult) map[string]classDetail {
	lats := map[string][]float64{}
	for _, rec := range p.recs {
		c := rec.kind.class()
		lats[c] = append(lats[c], ms(rec.lat))
	}
	out := map[string]classDetail{}
	for c, xs := range lats {
		out[c] = classDetail{N: len(xs), P50: quantile(xs, 0.5), P90: quantile(xs, 0.9), P99: quantile(xs, 0.99), Max: quantile(xs, 1)}
	}
	return out
}

// endToEndOf computes the end-to-end metrics of one phase. The class
// medians are taken per graph and averaged over the graphs, so a workload
// that splits its requests over two graphs of different sizes does not
// report a median that falls in the gap between them.
func endToEndOf(w *workload, inputs []graphInput, p phaseResult, setupS float64) map[string]float64 {
	var all []float64
	light, heavy := map[int][]float64{}, map[int][]float64{}
	completed := 0
	for _, rec := range p.recs {
		all = append(all, ms(rec.lat))
		if w.light(rec.kind, inputs[rec.graph]) {
			light[rec.graph] = append(light[rec.graph], ms(rec.lat))
		}
		if w.heavy(rec.kind, inputs[rec.graph]) {
			heavy[rec.graph] = append(heavy[rec.graph], ms(rec.lat))
		}
		if rec.ok {
			completed++
		}
	}
	return map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       float64(completed) / p.elapsed.Seconds(),
		"light_p50_ms":    meanOfMedians(light),
		"tail_ms":         quantile(all, w.tailQ),
		"heavy_p50_ms":    meanOfMedians(heavy),
		"alloc_kb_per_op": float64(p.alloc) / 1024 / float64(max(1, completed)),
	}
}

func meanOfMedians(byGraph map[int][]float64) float64 {
	var meds []float64
	for _, xs := range byGraph {
		meds = append(meds, median(xs))
	}
	return mean(meds)
}

// execute sets up, measures and checks one run.
func execute(ctx context.Context, cfg config, w *workload) (*result, *detail, error) {
	r := &runner{cfg: cfg, w: w, t0: time.Now()}
	var spans *tracer
	if cfg.trace {
		spans = newTracer(r.t0)
	}

	// Set up several times; keep the last service. In a traced run every
	// other set-up is traced, which gives the set-up's tracing overhead.
	var setupS, setupTracedS []float64
	loads := map[string][]float64{}
	var e *env
	for i := 0; i < w.setups; i++ {
		var tr *tracer
		if cfg.trace && i%2 == 1 {
			tr = spans
		}
		if e != nil {
			e.discard()
		}
		ne, inputs, d, err := r.setup(ctx, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		e, r.inputs = ne, inputs
		if tr != nil {
			setupTracedS = append(setupTracedS, d.Seconds())
		} else {
			setupS = append(setupS, d.Seconds())
		}
		for name, v := range e.loadMs {
			loads[name] = append(loads[name], v)
		}
	}
	defer e.discard()

	if err := r.prepareChecks(ctx); err != nil {
		return nil, nil, fmt.Errorf("reference answers: %w", err)
	}
	det := &detail{Phases: map[string]map[string]classDetail{}, Tail: fmt.Sprintf("p%g", w.tailQ*100)}
	durable := w.kind == kindLive
	var metrics map[string]float64
	var phases []phaseResult
	if !cfg.trace {
		p := r.measure(ctx, e, nil, cfg.seconds, 0, len(r.writes))
		phases = append(phases, p)
		det.Phases["untraced"] = classify(p)
		metrics = endToEndOf(w, r.inputs, p, median(setupS))
	} else {
		c := newClient(e.h.base)
		defer c.close()
		setupStats, err := indexStats(c)
		if err != nil {
			return nil, nil, err
		}
		half := len(r.writes) / 2
		a := r.measure(ctx, e, nil, cfg.seconds/2, 0, half)
		before, err := readScrape(c, durable)
		if err != nil {
			return nil, nil, err
		}
		b := r.measure(ctx, e, spans, cfg.seconds/2, half, len(r.writes))
		after, err := readScrape(c, durable)
		if err != nil {
			return nil, nil, err
		}
		phases = append(phases, a, b)
		det.Phases["untraced"], det.Phases["traced"] = classify(a), classify(b)
		metrics = layerMetrics(w, r.inputs, b, before, after, setupStats, loads)
		if err := replay(ctx, r.inputs, 3, spans, metrics); err != nil {
			return nil, nil, err
		}
		ua := endToEndOf(w, r.inputs, a, median(setupS))
		tb := endToEndOf(w, r.inputs, b, median(setupTracedS))
		for _, m := range endToEnd {
			metrics["trace.overhead."+m.name] = tb[m.name] - ua[m.name]
		}
	}

	if durable {
		var acked []op
		k := 0
		for _, p := range phases {
			for _, rec := range p.recs {
				if rec.kind == opWrite {
					if rec.ok {
						acked = append(acked, r.writes[k])
					}
					k++
				}
			}
		}
		if err := r.checkDurability(ctx, e, acked); err != nil {
			return nil, nil, err
		}
	}
	if cfg.trace {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := spans.write(path); err != nil {
			return nil, nil, err
		}
		det.Spans = path
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, errors.New("run exceeded its time limit")
	}

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	res.Correct = r.failed == 0 && r.attempted > 0
	det.FailRatio = float64(r.failed) / float64(max(1, r.attempted))
	det.Failures = r.failures
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: metrics[m.name], Unit: m.unit}
	}
	return res, det, nil
}

// layerMetrics computes the per-layer metrics of a traced phase.
func layerMetrics(w *workload, inputs []graphInput, p phaseResult, before, after scrape, setupStats []server.IndexStats, loads map[string][]float64) map[string]float64 {
	m := map[string]float64{}
	selfUs, evalUs := map[string][]float64{}, map[string][]float64{}
	var dumpBytes, writeSelf, buildSelf []float64
	var updMs, updPasses, updProducts, frMs, frRows, frProducts []float64
	builds := map[string][]cfpq.Stats{}
	reads, cached, readProducts, writes := 0, 0, 0, 0
	for _, rec := range p.recs {
		if !rec.ok {
			continue
		}
		switch c := rec.kind.class(); c {
		case "point", "pairs", "dump":
			selfUs[c] = append(selfUs[c], us(rec.lat-rec.eval))
			evalUs[c] = append(evalUs[c], us(rec.eval))
			reads++
			readProducts += rec.products
			if rec.cached {
				cached++
			}
			if c == "dump" {
				dumpBytes = append(dumpBytes, float64(rec.bytes))
			}
		case "build":
			reads++
			if rec.cached {
				cached++
			}
			buildSelf = append(buildSelf, ms(rec.lat-rec.build.Duration))
			kase := inputs[rec.graph].kase
			builds[kase] = append(builds[kase], rec.build)
		case "write":
			writes++
			writeSelf = append(writeSelf, ms(rec.lat-rec.upd.Duration))
			updMs = append(updMs, ms(rec.upd.Duration))
			updPasses = append(updPasses, float64(rec.upd.Iterations))
			updProducts = append(updProducts, float64(rec.upd.Products))
		case "expr":
			frMs = append(frMs, ms(rec.eval))
			frRows = append(frRows, float64(rec.frontier))
			frProducts = append(frProducts, float64(rec.products))
		}
	}
	fsyncMs := 0.0
	if n := after.fsyncCount - before.fsyncCount; n > 0 {
		fsyncMs = (after.fsyncSum - before.fsyncSum) / n * 1000
	}
	for _, c := range []string{"point", "pairs", "dump"} {
		m["server."+c+"_self_us"] = median(selfUs[c])
		m["cfpq."+c+"_us"] = median(evalUs[c])
	}
	m["server.dump_bytes"] = median(dumpBytes)
	if len(writeSelf) > 0 {
		m["server.write_self_ms"] = median(writeSelf) - fsyncMs
	}
	m["server.build_self_ms"] = median(buildSelf)
	if reads > 0 {
		m["cfpq.cached_read_share"] = float64(cached) / float64(reads)
	}
	m["cfpq.read_products"] = float64(readProducts)
	if w.kind != kindBuild {
		// The indexes this workload reads were built once, in set-up.
		for _, st := range setupStats {
			for _, in := range inputs {
				if in.name == st.Graph && in.grammar == st.Grammar {
					builds[in.kase] = append(builds[in.kase], st.Build)
				}
			}
		}
	}
	for kase, bs := range builds {
		var dur, passes, products, peak []float64
		for _, b := range bs {
			dur = append(dur, ms(b.Duration))
			passes = append(passes, float64(b.Iterations))
			products = append(products, float64(b.Products))
			peak = append(peak, float64(b.PeakBytes)/(1<<20))
		}
		m["core.build_ms."+kase], m["core.build_passes."+kase] = median(dur), median(passes)
		m["core.build_products."+kase], m["core.build_peak_mb."+kase] = median(products), median(peak)
	}
	m["core.update_ms"], m["core.update_passes"], m["core.update_products"] = median(updMs), mean(updPasses), mean(updProducts)
	m["core.frontier_ms"], m["core.frontier_rows"], m["core.frontier_products"] = median(frMs), mean(frRows), mean(frProducts)
	m["store.fsync_ms"] = fsyncMs
	if writes > 0 {
		m["store.fsyncs_per_write"] = (after.fsyncs - before.fsyncs) / float64(writes)
		m["store.wal_bytes_per_write"] = (after.walBytes - before.walBytes) / float64(writes)
	}
	m["store.compactions"] = float64(after.compactions - before.compactions)
	for name, xs := range loads {
		m["graph.load_ms."+name] = median(xs)
	}
	return m
}
