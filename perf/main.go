// Command perf is the repository's performance ledger: one benchmark
// that drives the whole pipeline through its public functions — event
// log → events decode → core.BuildStage → PlanStage → SolveStage →
// PublishStage → results.Write (.pmrs) → results.Read → serve.NewStore
// → Service.TryPublish → HTTP /v1 — times every call from outside,
// checks the outputs, and prints every metric by name with its unit.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perf/run.sh --workload overlap-zipf --seed 1 --seconds 10 --trace 0
//
// The parent process generates the workload's inputs from --seed with
// internal/gen, untimed, and hands only those files to fresh child
// processes that do the measured work: three solves (the pmrank -out
// job), two loads of the .pmrs to a ready server, and one server that
// takes the workload's traffic, open and closed loop. --seconds sets
// the length of the traffic phase. The last line of standard output is
// one JSON object; a human-readable table goes to standard error. With
// --trace 1 the run records spans around the same calls and prints the
// per-layer metrics instead; see README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pmpr/internal/events"
	"pmpr/internal/gen"
)

// serveRounds is how many times the serve child offers each of its
// steps; every step reports the median of its samples.
const serveRounds = 8

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run: overlap-zipf, overlap-churn, short-zipf or short-churn")
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Int("seconds", 10, "length of the traffic phase, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: record spans, write span files, print per-layer metrics")
		work    = flag.String("work", filepath.Join(".bench_build", "perf-work"), "directory for generated inputs, outputs and span files")
	)
	flag.Parse()
	wl, err := findWorkload(*name)
	if err != nil {
		fatal(2, err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(2, fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	exe, err := os.Executable()
	if err != nil {
		fatal(1, err)
	}
	opt := options{Exe: exe, Seed: *seed, Seconds: float64(*seconds), Trace: *trace == 1, Work: *work, Log: os.Stderr}
	rep, err := runWorkload(ctx, wl, opt)
	if err != nil {
		fatal(1, err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(1, err)
	}
	fmt.Println(string(line))
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(code)
}

// options configures one workload run.
type options struct {
	Exe     string // binary the children run ("<exe> child <job>")
	Seed    int64
	Seconds float64
	Trace   bool
	Work    string
	Log     io.Writer // the human-readable table
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON line the benchmark ends with.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// job is what the parent asks a child to do; it travels as one JSON
// argument.
type job struct {
	Mode      string  `json:"mode"` // solve, ready or serve
	Events    string  `json:"events,omitempty"`
	Ranks     string  `json:"ranks"`
	DeltaDays float64 `json:"delta_days,omitempty"`
	Slide     int64   `json:"slide,omitempty"`
	Seed      int64   `json:"seed"`
	TraceOut  string  `json:"trace_out,omitempty"` // span file; "" = untraced

	Churn  bool          `json:"churn,omitempty"`
	Warmup time.Duration `json:"warmup,omitempty"`
	Step   time.Duration `json:"step,omitempty"`
	Steps  []stepSpec    `json:"steps,omitempty"` // Steps[0] is the nominal step
	Rounds int           `json:"rounds,omitempty"`
}

// stepSpec is one step of the serve child's traffic: open loop at Rate
// requests per second, or, when Rate is 0, closed loop on Lanes client
// connections (0 = all of them).
type stepSpec struct {
	Rate   float64 `json:"rate,omitempty"`
	Lanes  int     `json:"lanes,omitempty"`
	Traced bool    `json:"traced,omitempty"`
}

// childResult is what a child measured.
type childResult struct {
	RanksSeconds float64            `json:"ranks_s,omitempty"`
	SetupSeconds float64            `json:"setup_s"`
	RSSMB        float64            `json:"rss_mb,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Warmup       *stepStats         `json:"warmup,omitempty"`
	Steps        []stepResult       `json:"steps,omitempty"`
	Republish    []float64          `json:"republish_s,omitempty"`
	Shed         int64              `json:"shed,omitempty"`
	Timeouts     int64              `json:"timeouts,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
}

func childMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "perf child: want one JSON job argument")
		return 2
	}
	var j job
	if err := json.Unmarshal([]byte(args[0]), &j); err != nil {
		fmt.Fprintln(os.Stderr, "perf child:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var res childResult
	var err error
	switch j.Mode {
	case "solve":
		res, err = runSolve(ctx, j)
	case "ready":
		res, err = runReady(j)
	case "serve":
		res, err = runServe(ctx, j)
	default:
		err = fmt.Errorf("unknown mode %q", j.Mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf child %s: %v\n", j.Mode, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perf child:", err)
		return 1
	}
	return 0
}

// runChild runs one child process to completion and decodes its result.
func runChild(ctx context.Context, opt options, j job) (childResult, error) {
	arg, err := json.Marshal(j)
	if err != nil {
		return childResult{}, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, opt.Exe, "child", string(arg))
	cmd.Stdout = &out
	cmd.Stderr = opt.Log
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("%s child: %w", j.Mode, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return childResult{}, fmt.Errorf("%s child output: %w", j.Mode, err)
	}
	return res, nil
}

// runWorkload generates the workload's inputs and runs its children.
func runWorkload(ctx context.Context, wl workload, opt options) (report, error) {
	dir, err := prepare(wl, opt)
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	base := job{
		Events: filepath.Join(dir, "events.pmev"), Ranks: filepath.Join(dir, "ranks.pmrs"),
		DeltaDays: wl.DeltaDays, Slide: wl.Slide, Seed: opt.Seed,
		Churn: wl.Churn, Rounds: serveRounds,
		// --seconds is the traffic phase: a tenth warms up closed
		// loop, the rest is split evenly across the rounds of the
		// untraced run's steps (a traced run's extra step gets the
		// same length).
		Warmup: time.Duration(opt.Seconds / 10 * float64(time.Second)),
		Step:   time.Duration(opt.Seconds * 0.9 / float64(serveRounds*len(untracedSteps(wl))) * float64(time.Second)),
	}
	steal0, total0, errSteal := hostSteal()
	run := runUntraced
	if opt.Trace {
		run = runTraced
	}
	rep, err := run(ctx, wl, opt, base)
	// A shared machine's hypervisor can take CPU time from this one
	// while it runs; a run that lost much of it is not comparable.
	if steal1, total1, err2 := hostSteal(); err == nil && errSteal == nil && err2 == nil && total1 > total0 {
		fmt.Fprintf(opt.Log, "  host: %.1f%% of CPU time stolen by the hypervisor during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	return rep, err
}

// hostSteal returns the CPU time the hypervisor has taken from this
// machine and its total CPU time, in clock ticks, from /proc/stat.
func hostSteal() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}

// prepare makes the run's directory and writes the generated event log.
func prepare(wl workload, opt options) (string, error) {
	ds, ok := gen.Get(wl.Dataset)
	if !ok {
		return "", fmt.Errorf("unknown dataset %q", wl.Dataset)
	}
	if err := os.MkdirAll(opt.Work, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(opt.Work, wl.Name+"-")
	if err != nil {
		return "", err
	}
	l, err := ds.Generate(wl.Scale, opt.Seed)
	if err == nil {
		err = writeEvents(filepath.Join(dir, "events.pmev"), l)
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

func writeEvents(path string, l *events.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := events.WriteBinary(f, l); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tally accumulates the operations of several children.
type tally struct{ attempted, failed int }

func (t *tally) add(r childResult) { t.attempted += r.Attempted; t.failed += r.Failed }

func (t tally) report(metrics map[string]metric) report {
	return report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
}

// untracedPlan is the order of an untraced run's children: three solves
// (ranks_s is their median) and three loads to ready (the serve child's
// included), spread out so that a slow spell of a shared machine moves
// at most one of each.
var untracedPlan = []string{"solve", "ready", "serve", "solve", "ready", "solve"}

// untracedSteps are the serve child's steps: the open-loop nominal rate
// (Steps[0]), one client in a closed loop (p50_ms), and every client
// connection in a closed loop (goodput_rps).
func untracedSteps(wl workload) []stepSpec {
	return []stepSpec{{Rate: wl.Nominal}, {Lanes: 1}, {}}
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, wl workload, opt options, base job) (report, error) {
	var ops tally
	var ranks, solveSetup, solveRSS, readySetup []float64
	var sv childResult
	for _, mode := range untracedPlan {
		j := base
		j.Mode = mode
		if mode == "serve" {
			j.Steps = untracedSteps(wl)
		}
		r, err := runChild(ctx, opt, j)
		if err != nil {
			return report{}, err
		}
		ops.add(r)
		switch mode {
		case "solve":
			ranks = append(ranks, r.RanksSeconds)
			solveSetup = append(solveSetup, r.SetupSeconds)
			solveRSS = append(solveRSS, r.RSSMB)
		case "serve":
			sv = r
			fallthrough
		default:
			readySetup = append(readySetup, r.SetupSeconds)
		}
	}

	single, closed := combineRounds(sv.Steps[1].Rounds), combineRounds(sv.Steps[2].Rounds)
	m := map[string]metric{
		"ranks_s":      {median(ranks), "s"},
		"setup_s":      {median(solveSetup) + median(readySetup), "s"},
		"solve_rss_mb": {median(solveRSS), "MB"},
		"serve_rss_mb": {sv.RSSMB, "MB"},
		"p50_ms":       {single.Latency.P50, "ms"},
		"goodput_rps":  {closed.Achieved, "req/s"},
	}
	fmt.Fprintf(opt.Log, "perf %s seed %d: GOMAXPROCS=%d; ranks_s runs %v; setup solve %v + serve %v\n",
		wl.Name, opt.Seed, runtime.GOMAXPROCS(0), fmtList(ranks), fmtList(solveSetup), fmtList(readySetup))
	printSteps(opt.Log, sv)
	printMetrics(opt.Log, m, ops)
	return ops.report(m), nil
}

// runTraced measures the per-layer metrics: a traced solve between two
// untraced ones (so a drift over the three cancels), then a serve child
// that loads the store traced and runs rounds of the untraced run's
// steps and a traced single-client step. Traced over untraced is the
// tracing overhead.
func runTraced(ctx context.Context, wl workload, opt options, base job) (report, error) {
	traceDir := filepath.Join(opt.Work, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return report{}, err
	}
	prefix := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", wl.Name, opt.Seed))
	var ops tally
	var plain []float64
	var traced childResult
	for _, tracing := range []bool{false, true, false} {
		j := base
		j.Mode = "solve"
		if tracing {
			j.TraceOut = prefix + "-solve.trace.json"
		}
		r, err := runChild(ctx, opt, j)
		if err != nil {
			return report{}, err
		}
		ops.add(r)
		if tracing {
			traced = r
		} else {
			plain = append(plain, r.RanksSeconds)
		}
	}

	j := base
	j.Mode = "serve"
	j.TraceOut = prefix + "-serve.trace.json"
	j.Steps = append(untracedSteps(wl), stepSpec{Lanes: 1, Traced: true})
	sv, err := runChild(ctx, opt, j)
	if err != nil {
		return report{}, err
	}
	ops.add(sv)
	nominal, single, closed, traced1 := combineRounds(sv.Steps[0].Rounds), combineRounds(sv.Steps[1].Rounds),
		combineRounds(sv.Steps[2].Rounds), combineRounds(sv.Steps[3].Rounds)

	m := make(map[string]metric)
	for _, d := range perLayer {
		v, ok := traced.Layers[d.Name]
		if !ok {
			v = sv.Layers[d.Name]
		}
		m[d.Name] = metric{v, d.Unit}
	}
	m["serve.saturated_hit_ratio"] = metric{closed.hitRatio(), "ratio"}
	m["gen.late_p99_ms"] = metric{nominal.LateP99, "ms"}
	m["gen.achieved_rps"] = metric{nominal.Achieved, "req/s"}
	m["trace.solve_overhead"] = metric{traced.RanksSeconds / median(plain), "ratio"}
	m["trace.serve_overhead"] = metric{traced1.Latency.P50 / single.Latency.P50, "ratio"}
	fmt.Fprintf(opt.Log, "perf %s seed %d (traced): spans in %s-{solve,serve}.trace.json\n", wl.Name, opt.Seed, prefix)
	printSteps(opt.Log, sv)
	printMetrics(opt.Log, m, ops)
	return ops.report(m), nil
}

// metricDef names a metric and its unit; BENCHMARK.json declares the
// same names (the smoke test holds the two together).
type metricDef struct{ Name, Unit string }

// perLayer lists the traced run's metrics in report order.
var perLayer = []metricDef{
	{"events.decode_s", "s"}, {"events.symmetrize_s", "s"}, {"tcsr.build_s", "s"},
	{"tcsr.stored_events", "count"}, {"tcsr.replication", "ratio"}, {"tcsr.memory_mb", "MB"},
	{"core.plan_s", "s"}, {"core.solve_s", "s"}, {"core.sweeps", "count"},
	{"core.edges_scanned", "count"}, {"core.scan_efficiency", "ratio"}, {"core.iterations", "count"},
	{"core.unconverged", "count"},
	{"core.warm_start_rate", "ratio"}, {"core.window_p50_ms", "ms"}, {"core.window_p99_ms", "ms"},
	{"core.scratch_hit_rate", "ratio"}, {"sched.load_imbalance", "ratio"}, {"sched.steals", "count"},
	{"core.publish_s", "s"}, {"results.encode_s", "s"}, {"results.mb", "MB"},
	{"results.decode_s", "s"}, {"serve.store_build_s", "s"}, {"serve.publish_s", "s"},
	{"serve.store.topk_us", "us"}, {"serve.store.trajectory_us", "us"}, {"serve.store.movers_us", "us"},
	{"serve.handler.topk.miss.p50_us", "us"}, {"serve.handler.topk.miss.p99_us", "us"},
	{"serve.handler.trajectory.miss.p50_us", "us"}, {"serve.handler.trajectory.miss.p99_us", "us"},
	{"serve.handler.movers.miss.p50_us", "us"}, {"serve.handler.movers.miss.p99_us", "us"},
	{"serve.handler.topk.hit.p50_us", "us"}, {"serve.handler.topk.hit.p99_us", "us"},
	{"serve.handler.trajectory.hit.p50_us", "us"}, {"serve.handler.trajectory.hit.p99_us", "us"},
	{"serve.handler.movers.hit.p50_us", "us"}, {"serve.handler.movers.hit.p99_us", "us"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.saturated_hit_ratio", "ratio"}, {"serve.cache_evictions", "count"},
	{"http.transport_p50_us", "us"},
	{"gen.late_p99_ms", "ms"}, {"gen.achieved_rps", "req/s"},
	{"trace.solve_overhead", "ratio"}, {"trace.serve_overhead", "ratio"},
}

func printSteps(w io.Writer, sv childResult) {
	fmt.Fprintf(w, "  %-8s %8s %8s %7s %7s %6s %10s %9s %9s %6s %8s\n",
		"step", "rate", "offered", "failed", "unsent", "hit%", "good_rps", "p50_ms", "p99_ms", "pct", "late_ms")
	row := func(label string, st stepStats) {
		rate := "closed"
		if st.Rate > 0 {
			rate = fmt.Sprintf("%.0f", st.Rate)
		}
		fmt.Fprintf(w, "  %-8s %8s %8d %7d %7d %6.1f %10.1f %9.3f %9.3f %6.1f %8.4f\n", label, rate, st.Offered,
			st.Failed, st.Unsent, 100*st.hitRatio(), st.Achieved, st.Latency.P50, st.Latency.P99, st.Latency.Supported, st.LateP99)
	}
	if sv.Warmup != nil {
		row("warm-up", *sv.Warmup)
	}
	for _, st := range sv.Steps {
		label := "nominal"
		switch {
		case st.Traced:
			label = "traced"
		case st.Lanes == 1:
			label = "single"
		case st.Rate == 0:
			label = "closed"
		}
		row(label, combineRounds(st.Rounds))
	}
	if len(sv.Republish) > 0 {
		fmt.Fprintf(w, "  republishes: %d, median %.4f s\n", len(sv.Republish), median(sv.Republish))
	}
	fmt.Fprintf(w, "  guard: shed %d, timeouts %d\n", sv.Shed, sv.Timeouts)
}

func printMetrics(w io.Writer, m map[string]metric, ops tally) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	rate := 0.0
	if ops.attempted > 0 {
		rate = float64(ops.failed) / float64(ops.attempted)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed (error rate %.4g)\n", ops.attempted, ops.failed, rate)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
