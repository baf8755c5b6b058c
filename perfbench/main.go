// Command perfbench is dPerf's end-to-end benchmark. One invocation
// runs one workload for a fixed time from a seed, checks every output,
// and prints its metrics: a human-readable table, one provenance record
// line (prefixed "PERFBENCH_RECORD ") and, last, one JSON result line.
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare base.txt new.txt
//
// Workloads (all closed loops):
//
//	cold      one caller; each op is a full cold prediction from source
//	          (analyze, block bench, trace generation, template, binary
//	          round trip, DES and auto predictions)
//	serve     the dperfd binary over loopback HTTP, driven by two
//	          connections with a seeded mix of predicts, sweeps, scans,
//	          uploads and list/stats calls
//	capacity  one goroutine running planner sessions: coarse analytic
//	          evaluations, then guarded-tape scans around the winners
//
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 the run records spans around every call into a layer,
// writes them to a file and reports the per-layer metrics instead.
// The compare subcommand reads two files of benchmark output and
// judges every end-to-end metric against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"
)

// env is what a workload run gets: its seeded inputs, its time budget,
// the tracer, and the locations the launcher built into.
type env struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer
	root    string // repository checkout
	dperfd  string // dperfd binary
	out     string // build/output directory inside the checkout
}

// rng derives an independent deterministic stream for one purpose, so
// adding draws to one stream never shifts another.
func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, stream))
}

// outcome is what a workload reports back: the timed phase's per-op
// latencies and counts, the set-up repetitions, the peak RSS of the
// process doing the work, and (traced runs) the per-layer metrics.
type outcome struct {
	attempted int
	failed    int
	latencies []time.Duration
	elapsed   time.Duration
	configs   int64
	// passes, when set, are repetitions of one fixed unit of work;
	// throughput then comes from the median pass.
	passes    []passStat
	setups    []time.Duration
	peakRSSMB float64
	layers    map[string]float64
	notes     []string
}

// fail records a failed op with its reason; the first few reasons are
// printed.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		o.notes = append(o.notes, "FAIL: "+fmt.Sprintf(format, args...))
	}
}

// passStat is one repetition of a workload's fixed unit of work.
type passStat struct {
	time         time.Duration
	ops, configs int64
}

type workloadFunc func(*env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"cold":     runCold,
	"serve":    runServe,
	"capacity": runCapacity,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: cold, serve or capacity")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "repository checkout")
	dperfd := fs.String("dperfd", "", "dperfd binary (serve workload)")
	out := fs.String("out", ".bench_build/perfbench", "output directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		if err := compareMain(*root, fs.Args()[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	wf, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want cold, serve or capacity)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		tr:      newTracer(*traced == 1),
		root:    *root,
		dperfd:  *dperfd,
		out:     *out,
	}
	// A signal must still stop any dperfd this run started; workloads
	// register their cleanups with onExit.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		runExitHooks()
		os.Exit(1)
	}()
	defer runExitHooks()

	res, err := wf(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := report(os.Stdout, e, *workload, res, args); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// endToEnd lists the end-to-end metrics every result line carries.
// fail_ratio is printed in the table but travels in the result line as
// the attempted/failed counts: on correct code it is always zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"configs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the provenance line: everything needed to name the
// fixture, host and command a number came from.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	Command    []string           `json:"command"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	CPU        string             `json:"cpu_model"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Samples    int                `json:"latency_samples"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
}

func report(w *os.File, e *env, workload string, res *outcome, args []string) error {
	lat := append([]time.Duration(nil), res.latencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ops := len(lat)
	if ops == 0 || res.elapsed <= 0 || len(res.setups) == 0 {
		return fmt.Errorf("%s: no completed ops to report", workload)
	}
	e2e := map[string]float64{
		"setup_s":        median(res.setups).Seconds(),
		"ops_per_s":      float64(ops) / res.elapsed.Seconds(),
		"latency_p50_ms": ms(median(lat)),
		"latency_p99_ms": ms(quantileNearest(lat, 0.99)),
		"configs_per_s":  float64(res.configs) / res.elapsed.Seconds(),
		"peak_rss_mb":    res.peakRSSMB,
	}
	if len(res.passes) > 0 {
		var ts []time.Duration
		for _, p := range res.passes {
			ts = append(ts, p.time)
		}
		m := median(ts).Seconds()
		// Every pass does the same ops, so the first pass's counts hold.
		e2e["ops_per_s"] = float64(res.passes[0].ops) / m
		e2e["configs_per_s"] = float64(res.passes[0].configs) / m
	}
	failRatio := float64(res.failed) / float64(res.attempted)

	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "end-to-end (%s, seed %d, %d ops in %.2f s, traced=%t)\tvalue\tunit\n",
		workload, e.seed, ops, res.elapsed.Seconds(), e.tr.on)
	for _, m := range endToEnd {
		note := ""
		switch m.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(res.setups))
		case "latency_p50_ms":
			note = fmt.Sprintf("n=%d", ops)
		case "latency_p99_ms":
			if beyond := ops - ceilIndex(ops, 0.99); beyond < 10 {
				note = fmt.Sprintf("n=%d, only %d beyond: unsupported tail", ops, beyond)
			} else {
				note = fmt.Sprintf("n=%d, %d beyond", ops, beyond)
			}
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", m.name, e2e[m.name], m.unit, note)
	}
	fmt.Fprintf(tw, "  fail_ratio\t%.6g\t-\t%d failed of %d attempted\n", failRatio, res.failed, res.attempted)
	if err := tw.Flush(); err != nil {
		return err
	}
	if e.tr.on {
		if err := printSpans(w, e.tr.stats()); err != nil {
			return err
		}
		if err := printLayers(w, res.layers); err != nil {
			return err
		}
		path := filepath.Join(e.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed))
		if err := e.tr.writeFile(path); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", e.tr.count(), path)
	}

	rec := record{
		Workload:   workload,
		Seed:       e.seed,
		Seconds:    e.seconds.Seconds(),
		Traced:     e.tr.on,
		Command:    append([]string{"bash", "perfbench/run.sh"}, stripLauncherFlags(args)...),
		Commit:     commitOf(e.root),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Attempted:  res.attempted,
		Failed:     res.failed,
		Samples:    ops,
		EndToEnd:   e2e,
	}
	if e.tr.on {
		rec.PerLayer = res.layers
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", recordPrefix, line)

	metrics := map[string]metricValue{}
	if e.tr.on {
		for _, m := range perLayer {
			metrics[m.name] = metricValue{res.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	final, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", final)
	return err
}

const recordPrefix = "PERFBENCH_RECORD "

// stripLauncherFlags drops the flags run.sh adds, leaving the command
// line as a user types it.
func stripLauncherFlags(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-root", "-dperfd", "-out", "--root", "--dperfd", "--out":
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// commitOf names the source revision: the git commit when the checkout
// is a git repository, otherwise a digest of its Go sources.
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		name := strings.TrimPrefix(ref, "ref: ")
		if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, l := range strings.Split(string(b), "\n") {
				if f := strings.Fields(l); len(f) == 2 && f[1] == name {
					return f[0]
				}
			}
		}
	}
	d, err := sourceDigest(root)
	if err != nil {
		return "unknown"
	}
	return "source-sha256:" + d
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// Exit hooks stop child processes on every exit path, signals included.
var (
	hooksMu sync.Mutex
	hooks   []func()
)

// onExit registers a cleanup; it must be idempotent.
func onExit(f func()) {
	hooksMu.Lock()
	defer hooksMu.Unlock()
	hooks = append(hooks, f)
}

func runExitHooks() {
	hooksMu.Lock()
	hs := hooks
	hooks = nil
	hooksMu.Unlock()
	for i := len(hs) - 1; i >= 0; i-- {
		hs[i]()
	}
}
