package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// tracer records spans from the benchmark's own code around each call
// into a layer. Spans stay in memory until the run ends. A disabled
// tracer records nothing, so the untraced run pays one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the enclosing span's ID (-1 for a
// root); spans of one op share Op. N is a count read where the work
// happened (records generated, bytes encoded, points scanned).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	N      float64       `json:"n,omitempty"`
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, op int64, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes a span, attaching a count.
func (t *tracer) end(id int, n float64) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].N = n
}

// endAs closes a span under a name known only once the call returned.
func (t *tracer) endAs(id int, name string, n float64) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
	t.end(id, n)
}

// do runs f inside a span.
func (t *tracer) do(name string, op int64, parent int, f func() error) error {
	id := t.begin(name, op, parent)
	err := f()
	t.end(id, 0)
	return err
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	name  string
	durs  []time.Duration
	self  time.Duration
	total time.Duration
	n     float64
}

// stats aggregates spans by name. A span's self time is its duration
// minus the time its child spans cover (children of one span run one
// after another on the caller's goroutine).
func (t *tracer) stats() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStat{name: s.Name}
			out[s.Name] = ls
		}
		d := s.End - s.Start
		ls.durs = append(ls.durs, d)
		ls.total += d
		ls.self += d - child[i]
		ls.n += s.N
	}
	return out
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures what recording one span costs, so the traced run
// can state its own overhead: begin/end pairs on a scratch tracer.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer(true)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", int64(i), -1), 1)
	}
	return time.Since(start) / n
}

// perLayer lists the per-layer metrics every traced result carries, in
// BENCHMARK.json order. A workload that does not exercise a layer
// reports 0 for it; the table marks those as not exercised.
var perLayer = []metricDef{
	{"minic.analyze_ms", "ms"},
	{"interp.bench_ms", "ms"},
	{"interp.traces_ms", "ms"},
	{"interp.records_per_s", "1/s"},
	{"interp.share", "ratio"},
	{"trace.factor_ms", "ms"},
	{"trace.encode_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"trace.template_bytes", "bytes"},
	{"store.put_ms", "ms"},
	{"dperfd.upload_p50_ms", "ms"},
	{"replay.des_ms", "ms"},
	{"replay.first_touch_ms", "ms"},
	{"replay.ff_round_ratio", "ratio"},
	{"analytic.certify_ms", "ms"},
	{"analytic.warm_us", "us"},
	{"analytic.decline_ratio", "ratio"},
	{"analytic.evaluate_us", "us"},
	{"analytic.scan_points_per_s", "1/s"},
	{"analytic.scan_fallback_ratio", "ratio"},
	{"analytic.scan_regions", "count"},
	{"dperf.sweep_configs_per_s", "1/s"},
	{"dperfd.predict_p50_ms", "ms"},
	{"dperfd.predict_p99_ms", "ms"},
	{"dperfd.sweep_p50_ms", "ms"},
	{"dperfd.sweep_p99_ms", "ms"},
	{"dperfd.scan_p50_ms", "ms"},
	{"dperfd.hit_p50_ms", "ms"},
	{"dperfd.cache_hit_ratio", "ratio"},
	{"dperfd.http_overhead_ms", "ms"},
	{"dperfd.idle_sessions", "count"},
	{"bench.client_cpu_share", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// layerMedian is the median duration of the spans of one name, in the
// metric's unit (0 when the workload recorded none).
func layerMedian(st map[string]*layerStat, span string, unit time.Duration) float64 {
	ls := st[span]
	if ls == nil {
		return 0
	}
	return float64(median(ls.durs)) / float64(unit)
}

// layerMean is the mean duration of the spans of one name: for spans
// whose sizes differ by design, such as first touches of small and
// large platforms, where a median would pick one size.
func layerMean(st map[string]*layerStat, span string, unit time.Duration) float64 {
	ls := st[span]
	if ls == nil || len(ls.durs) == 0 {
		return 0
	}
	return float64(ls.total) / float64(len(ls.durs)) / float64(unit)
}

// traceOverheadPct is the tracer's own cost as a share of the measured
// time: spans recorded × the cost of one, over the traced wall time.
func traceOverheadPct(t *tracer, wall time.Duration) float64 {
	if !t.on || wall <= 0 {
		return 0
	}
	return 100 * float64(time.Duration(t.count())*spanCost()) / float64(wall)
}

// printLayers prints the per-layer metrics, then the span table: calls,
// total and self time per span name.
func printLayers(w io.Writer, layers map[string]float64) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "per-layer\tvalue\tunit")
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			fmt.Fprintf(tw, "  %s\t-\t%s\tnot exercised by this workload\n", m.name, m.unit)
			continue
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.name, v, m.unit)
	}
	return tw.Flush()
}

// printSpans prints calls, median, total and self time per span name.
func printSpans(w io.Writer, st map[string]*layerStat) error {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcalls\tmedian_ms\ttotal_ms\tself_ms\tcount")
	for _, n := range names {
		ls := st[n]
		fmt.Fprintf(tw, "  %s\t%d\t%.3f\t%.1f\t%.1f\t%.0f\n", n, len(ls.durs), ms(median(ls.durs)), ms(ls.total), ms(ls.self), ls.n)
	}
	return tw.Flush()
}
