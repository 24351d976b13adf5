// Command perfbench is the repository's end-to-end benchmark. It runs one of
// three seeded, fixed-work, closed-loop workloads (one op in flight, one
// driver goroutine) through the public functions of each layer, checks every
// result, and prints the end-to-end metrics as the last line of its output:
//
//	perfbench --workload friending|handset|replicated-ingest --seed N --seconds S --trace 0|1
//
// With --trace 1 it instead measures an untraced and a traced phase of half
// the time each, records spans around the same calls in the traced phase,
// writes them to <workdir>/traces/ and prints the per-layer metrics and the
// tracing overhead. perfbench/run.sh builds it from the checkout's sources;
// README.md describes the workloads and metrics.
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
	"sort"
	"strings"
	"time"
)

// workload is one benchmark scenario. setup builds the stack and brings it to
// steady state; op runs one closed-loop operation and reports how many items
// (friendings, requests, bottles) it attempted and how many of them failed
// their checks.
type workload interface {
	setup(ctx context.Context) error
	op(ctx context.Context, tr *tracer) (items, failed int)
	// inputs digests the set-up's seed-derived inputs.
	inputs() [32]byte
	// probe snapshots the cumulative counters the metrics are deltas of.
	probe(ctx context.Context) (probe, error)
	close()
}

// probe is a snapshot of every counter a workload exposes; fields a workload
// has no use for stay zero.
type probe struct {
	seen, held int // steady-state guards: seen-window fill, bottles held

	server   opCounters // per-opcode server metrics, summed over racks
	walBytes float64

	hintsQueued, handoffApplied float64

	sweeps, queryIDs, scanned, returned float64

	handled, candidates, matches, keys, systems float64

	handshake time.Duration // auth: a fresh connection's extra cost, from set-up
}

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	workDir  string
	commit   string
	size     size
	// tamper, when set, rewrites every reply the initiator receives before it
	// is verified. Tests use it to check that a corrupted reply fails its op.
	tamper func([]byte) []byte
}

// size is the amount of set-up work a run does; tests shrink it.
type size struct {
	setups     int // set-ups per run; setup_s is their median
	users      int // corpus profiles
	background int // bottles held on the rack(s) besides the ops' own
	seenCap    int // the sweeper's seen window (friending)
	warmup     int // ops run after set-up, before timing
	specs      int // distinct op requests, cycled
	neighbours int // participants around the handset initiator
	batch      int // bottles per replicated-ingest op
	pool       int // pre-sealed batches cycled by replicated-ingest
}

var fullSize = size{
	setups: 3, users: 4096, background: 2048, seenCap: 4096, warmup: 256,
	specs: 512, neighbours: 24, batch: 64, pool: 16,
}

var workloads = map[string]func(options) workload{
	"friending":         newFriending,
	"handset":           newHandset,
	"replicated-ingest": newIngest,
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{size: fullSize}
	fs.StringVar(&o.workload, "workload", "", "workload: friending, handset or replicated-ingest")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input derives from")
	secs := fs.Float64("seconds", 30, "measured time per run")
	traced := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for rack data and span dumps")
	fs.StringVar(&o.commit, "commit", "unknown", "commit being measured, for the run metadata")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if *secs <= 0 || (*traced != 0 && *traced != 1) {
		return o, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o.duration = time.Duration(*secs * float64(time.Second))
	o.trace = *traced == 1
	return o, nil
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is one timed closed loop.
type phase struct {
	lat           []time.Duration // per op
	items, failed int
	elapsed       time.Duration
	mallocs       uint64
	gcs           uint32
	before, after probe
}

// measure runs ops back to back for d.
func measure(ctx context.Context, w workload, d time.Duration, tr *tracer) (phase, error) {
	var ph phase
	var err error
	runtime.GC()
	if ph.before, err = w.probe(ctx); err != nil {
		return ph, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		items, failed := w.op(ctx, tr)
		ph.lat = append(ph.lat, time.Since(t0))
		ph.items += items
		ph.failed += failed
	}
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.gcs = m1.NumGC - m0.NumGC
	ph.after, err = w.probe(ctx)
	return ph, err
}

func run(ctx context.Context, o options, out io.Writer) (result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, err
	}
	dataRoot, err := os.MkdirTemp(o.workDir, "data-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dataRoot)

	var w workload
	var setups []float64
	var first [32]byte
	identical := true
	for i := 0; i < o.size.setups; i++ {
		if w != nil {
			w.close()
		}
		so := o
		so.workDir = filepath.Join(dataRoot, fmt.Sprint("setup-", i))
		w = workloads[o.workload](so)
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			first = w.inputs()
		} else if w.inputs() != first {
			identical = false
		}
	}
	defer w.close()

	var plain, traced, counted phase
	var tr, allocTr *tracer
	if o.trace {
		if plain, err = measure(ctx, w, o.duration/2, nil); err != nil {
			return result{}, err
		}
		tr = newTracer()
		if traced, err = measure(ctx, w, o.duration/2, tr); err != nil {
			return result{}, err
		}
		allocTr = &tracer{base: time.Now(), countAllocs: true}
		if counted, err = measure(ctx, w, o.duration/10, allocTr); err != nil {
			return result{}, err
		}
	} else if plain, err = measure(ctx, w, o.duration, nil); err != nil {
		return result{}, err
	}

	g := guards(plain, traced, o.trace, identical)
	res := result{
		Attempted: plain.items + traced.items + counted.items,
		Failed:    plain.failed + traced.failed + counted.failed,
	}
	res.Correct = res.Failed == 0 && g.ok
	if res.Attempted == 0 {
		return result{}, errors.New("no op completed in the measured time")
	}

	fmt.Fprintf(out, "meta %s\n", mustJSON(hostMeta(o, dataRoot)))
	fmt.Fprintf(out, "guards %s\n", mustJSON(g))
	if o.trace {
		layer := layerMetrics(plain, traced, tr.stats(), allocTr.stats())
		for k, v := range g.values() {
			layer[k] = v
		}
		res.Metrics = pick(perLayer, layer)
		path := filepath.Join(o.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return result{}, err
		}
		if err := tr.write(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), path)
		printTable(out, res.Metrics)
	} else {
		res.Metrics = pick(endToEnd, endToEndMetrics(plain, setups))
	}
	return res, nil
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"allocs_per_op", "count"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

func endToEndMetrics(ph phase, setups []float64) map[string]float64 {
	n := float64(ph.items)
	return map[string]float64{
		"throughput_per_s": float64(ph.items-ph.failed) / ph.elapsed.Seconds(),
		"latency_p50_ms":   ms(quantile(ph.lat, 0.50)),
		"latency_p90_ms":   ms(quantile(ph.lat, 0.90)),
		"allocs_per_op":    float64(ph.mallocs) / n,
		"setup_s":          median(setups),
		"peak_rss_mb":      peakRSSMB(),
	}
}

func pick(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

// printTable prints the per-layer metrics, one per line, for people reading
// a traced run.
func printTable(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "layer %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// steadyGuards are the per-run checks that the timed loop ran in steady
// state on the inputs the seed defines.
type steadyGuards struct {
	P50FirstMs      float64 `json:"p50_first_half_ms"`
	P50SecondMs     float64 `json:"p50_second_half_ms"`
	P50DriftPct     float64 `json:"p50_drift_pct"`
	SeenStart       int     `json:"seen_start"`
	SeenEnd         int     `json:"seen_end"`
	HeldStart       int     `json:"held_start"`
	HeldEnd         int     `json:"held_end"`
	IdenticalInputs bool    `json:"identical_inputs"`
	ok              bool
}

// guards compares the first and second half of the untraced phase, and the
// seen window and held population at the start and end of timing. A held
// population or seen window that moved, or inputs that differed between two
// set-ups of one seed, make the run incorrect.
func guards(plain, traced phase, tracing bool, identical bool) steadyGuards {
	half := len(plain.lat) / 2
	g := steadyGuards{
		P50FirstMs:      ms(quantile(plain.lat[:half], 0.5)),
		P50SecondMs:     ms(quantile(plain.lat[half:], 0.5)),
		SeenStart:       plain.before.seen,
		SeenEnd:         plain.after.seen,
		HeldStart:       plain.before.held,
		HeldEnd:         plain.after.held,
		IdenticalInputs: identical,
	}
	if tracing {
		g.SeenEnd, g.HeldEnd = traced.after.seen, traced.after.held
	}
	if g.P50FirstMs > 0 {
		g.P50DriftPct = 100 * (g.P50SecondMs - g.P50FirstMs) / g.P50FirstMs
	}
	g.ok = identical && g.SeenStart == g.SeenEnd && g.HeldStart == g.HeldEnd
	return g
}

func (g steadyGuards) values() map[string]float64 {
	return map[string]float64{
		"steady.p50_drift_pct": g.P50DriftPct,
		"steady.seen_start":    float64(g.SeenStart),
		"steady.seen_end":      float64(g.SeenEnd),
		"steady.held_start":    float64(g.HeldStart),
		"steady.held_end":      float64(g.HeldEnd),
	}
}

// hostMeta describes the host and the run.
func hostMeta(o options, dataDir string) map[string]any {
	transportDesc := "loopback TCP, TLS 1.3, capability token"
	switch o.workload {
	case "handset":
		transportDesc = "none (in-process participants)"
	case "replicated-ingest":
		transportDesc = "loopback TCP, mutual TLS 1.3, capability token"
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.duration.Seconds(),
		"trace":      o.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     o.commit,
		"data_fs":    fsType(dataDir),
		"transport":  transportDesc,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
