// Command perfbench is the repository's benchmark. It starts the platform
// from the constructors cmd/mcsplatform and cmd/mcsrouter use, serves it
// over loopback TCP, drives one named workload from a seeded load
// generator, checks the answers, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of a traced run (see METRICS.md).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// e2eNames are the end-to-end metrics every workload reports, in order.
var e2eNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"write_p50_ms", "ms"},
	{"truth_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// procs is the GOMAXPROCS each workload runs with. Ingest and campaign
// get 2 processors, as a deployed node on a 2-vCPU machine would, so
// campaign's aggregates take the grouping's parallel worker branch. Fleet
// gets one: on a shared 2-vCPU virtual machine the second vCPU's
// availability varies from minute to minute (hypervisor steal), and with
// two processors fleet's served td-tr p50 spread more than its bound
// between runs (see METRICS.md).
var procs = map[string]int{"ingest": 2, "campaign": 2, "fleet": 1}

// setups is how many times a run builds its scenario and system; setup_s
// is the median, and the last set-up is the one measured.
const setups = 3

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds this run's durable data directories.
	dir string
	// scale shrinks scenario sizes and rates; 1 in real runs, smaller in
	// the smoke tests.
	scale float64
}

// workload is one named traffic mix over a freshly started system.
type workload interface {
	// setup builds the scenario, opens the stores, starts the servers,
	// preloads and warms up.
	setup(ctx context.Context, rec *recorder) error
	// measure runs the timed window, filling the outcome's E2E metrics,
	// report lines and window counters.
	measure(ctx context.Context, out *outcome) error
	// verify runs the output checks and, in traced runs, the offline
	// layer analyses on the served inputs.
	verify(ctx context.Context, out *outcome) error
	close() error
}

var workloads = map[string]func(cfg runConfig, dir string) workload{
	"ingest":   newIngest,
	"campaign": newCampaign,
	"fleet":    newFleet,
}

// reportLine is one measured metric in the full report.
type reportLine struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N is the sample count behind a timing (0 for counts and ratios).
	N int `json:"n,omitempty"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome collects everything one run measured and checked.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Checks    []check            `json:"checks"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	SetupEach []float64          `json:"setup_s_each"`
	Report    []reportLine       `json:"report"`
	E2E       map[string]float64 `json:"e2e"`
	Layers    map[string]float64 `json:"layers,omitempty"`

	win window
	// offline holds per-layer metrics from direct calls (framework
	// observer, grouping, DTW, fingerprint extraction, simulation).
	offline map[string]float64
}

func (o *outcome) line(name, unit string, v float64, n int) {
	o.Report = append(o.Report, reportLine{Name: name, Unit: unit, Value: finite(v), N: n})
}

// timing adds base_p50 and base_p<tail> lines for a latency sample and
// returns its summary.
func (o *outcome) timing(base string, xs []float64) dist {
	d := summarize(xs)
	o.line(base+"_p50_ms", "ms", d.P50, d.N)
	if d.TailP > 0 && d.TailP != 50 {
		o.line(fmt.Sprintf("%s_p%g_ms", base, d.TailP), "ms", d.Tail, d.N)
	}
	return d
}

// writeE2E reports the write latencies and sets write_p50_ms.
func (o *outcome) writeE2E(lat []float64) {
	o.E2E["write_p50_ms"] = o.timing("write", lat).P50
}

func (o *outcome) check(name string, ok bool, detail string) {
	o.Checks = append(o.Checks, check{Name: name, OK: ok, Detail: detail})
}

// count adds a batch of samples to attempted and failed.
func (o *outcome) count(ss []sample) {
	for _, s := range ss {
		o.Attempted++
		if s.err != nil {
			o.Failed++
		}
	}
}

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ingest, campaign or fleet")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for data, reports and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload ingest|campaign|fleet, --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(procs[*name])
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1}
	cfg.dir = filepath.Join(*out, "data", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	defer os.RemoveAll(cfg.dir)

	o, rec, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	results := filepath.Join(*out, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rec != nil {
		if err := writeSpans(filepath.Join(results, *name+"-spans.jsonl"), rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	printReport(stdout, o, results)
	if err := writeJSON(filepath.Join(results, fmt.Sprintf("%s-trace%d.json", *name, *trace)), o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printResult(stdout, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !o.Correct {
		return 1
	}
	return 0
}

// run sets the workload up setups times, measures the last set-up,
// verifies it and tears it down.
func run(ctx context.Context, cfg runConfig) (*outcome, *recorder, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	o := &outcome{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, E2E: map[string]float64{}, offline: map[string]float64{}}
	var w workload
	for i := 0; i < setups; i++ {
		w = workloads[cfg.workload](cfg, filepath.Join(cfg.dir, fmt.Sprint(i)))
		t0 := time.Now()
		if err := w.setup(ctx, rec); err != nil {
			_ = w.close()
			return nil, nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		o.SetupEach = append(o.SetupEach, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := w.close(); err != nil {
				return nil, nil, fmt.Errorf("%s teardown: %w", cfg.workload, err)
			}
		}
	}
	o.E2E["setup_s"] = median(o.SetupEach)

	var from int64
	if rec != nil {
		from = rec.now()
	}
	allocs0, gc0, cpu0 := runtimeCounters()
	rusage0 := cpuTime()
	err := w.measure(ctx, o)
	rusage1 := cpuTime()
	allocs1, gc1, cpu1 := runtimeCounters()
	// The peak is read before the checks, which aggregate offline and
	// would otherwise set it.
	o.E2E["peak_rss_mb"] = peakRSSMB()
	var to int64
	if rec != nil {
		to = rec.now()
	}
	if err == nil {
		err = w.verify(ctx, o)
	}
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if o.Attempted > 0 {
		o.E2E["cpu_ms_per_op"] = ms(rusage1-rusage0) / float64(o.Attempted)
	}
	o.line("cpu_ms_per_op", "ms", o.E2E["cpu_ms_per_op"], o.Attempted)
	o.line("setup_s", "s", o.E2E["setup_s"], len(o.SetupEach))
	o.line("peak_rss_mb", "MB", o.E2E["peak_rss_mb"], 0)
	ratio := 0.0
	if o.Attempted > 0 {
		ratio = float64(o.Failed) / float64(o.Attempted)
	}
	o.line("failed_ratio", "ratio", ratio, o.Attempted)
	for _, m := range e2eNames {
		if v, ok := o.E2E[m.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			o.check("metric_"+m.name, false, fmt.Sprintf("no positive finite value (%v)", v))
		}
	}
	for k, v := range o.E2E {
		o.E2E[k] = finite(v)
	}
	if rec != nil {
		o.win.spans = spansIn(rec, from, to)
		o.win.allocs = allocs1 - allocs0
		o.win.gcCPU, o.win.totalCPU = gc1-gc0, cpu1-cpu0
		o.Layers = o.win.layers()
		for k, v := range o.offline {
			o.Layers[k] = v
		}
		for k, v := range o.Layers {
			o.Layers[k] = finite(v)
		}
	}
	o.Correct = true
	for _, c := range o.Checks {
		o.Correct = o.Correct && c.OK
	}
	return o, rec, nil
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printReport prints the human-readable report: checks, every measured
// metric with its sample count, the per-layer metrics of a traced run, and
// the traced-vs-untraced overhead line.
func printReport(w io.Writer, o *outcome, results string) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", o.Workload, o.Seed, o.Trace)
	for _, c := range o.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-28s %s %s\n", c.Name, status, c.Detail)
	}
	for _, l := range o.Report {
		if l.N > 0 {
			fmt.Fprintf(w, "metric %-28s %12.4f %-5s n=%d\n", l.Name, l.Value, l.Unit, l.N)
		} else {
			fmt.Fprintf(w, "metric %-28s %12.4f %s\n", l.Name, l.Value, l.Unit)
		}
	}
	if !o.Trace {
		return
	}
	keys := make([]string, 0, len(o.Layers))
	for k := range o.Layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "layer %-40s %14.4f\n", k, o.Layers[k])
	}
	fmt.Fprintln(w, overheadLine(o, filepath.Join(results, o.Workload+"-trace0.json")))
}

// overheadLine compares the traced run's E2E metrics with the last
// untraced run of the same workload in this checkout.
func overheadLine(o *outcome, untracedPath string) string {
	line := fmt.Sprintf("overhead %s:", o.Workload)
	var base outcome
	buf, err := os.ReadFile(untracedPath)
	if err != nil || json.Unmarshal(buf, &base) != nil {
		return line + " no untraced run recorded"
	}
	for _, m := range e2eNames {
		u, t := base.E2E[m.name], o.E2E[m.name]
		if u > 0 {
			line += fmt.Sprintf(" %s %.4g->%.4g (%+.1f%%)", m.name, u, t, 100*(t-u)/u)
		}
	}
	return line
}

// printResult prints the result line, the last line of standard output.
func printResult(w io.Writer, o *outcome) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	if o.Trace {
		for _, l := range layerNames {
			metrics[l.name] = metric{Value: finite(o.Layers[l.name]), Unit: l.unit}
		}
	} else {
		for _, m := range e2eNames {
			metrics[m.name] = metric{Value: finite(o.E2E[m.name]), Unit: m.unit}
		}
	}
	buf, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Correct, max(o.Attempted, 1), o.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}

// finite maps values JSON cannot carry: NaN to 0, infinities to ±MaxFloat64.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
