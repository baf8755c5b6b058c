package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/dperf"
	"repro/internal/analytic"
	"repro/internal/capfamily"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/store"
)

// The serve workload: the real dperfd binary with an empty temporary
// store, driven over loopback HTTP by two connections in a closed loop.
// Replay, analytic certification, tapes, store admission and the
// response cache all work under concurrent traffic, with writes
// (uploads) beside reads and cache hits beside misses; the interpreter
// does nothing in the timed phase.
//
// Before timing, the seed draws a pool of trace sets: weak-scaling
// strip-obstacle sets (each variant interpreted once and re-bound with
// ScaleShared at 4, 8, 16 and 32 ranks) and obstacle@8 at reduced
// rounds, at O0–O3. Set-up, the part setup_s times, starts the server,
// uploads the preloaded part of the pool and makes one warm-up predict
// per platform kind × rank count: a first DES predict on a platform
// pays for building it, which belongs in set-up, not in the tail.
//
// The timed mix is drawn from the seed as one deterministic request
// stream: predicts (mostly fast-forward DES, some auto, analytic and
// no-fast-forward), 3-platform × sync/async sweeps, small /v1/scan
// grids, uploads of held-back sets and list/stats calls. A fixed share
// of predicts, sweeps and scans repeats an earlier key and waits for
// that key's first response, so planned hits hit; every other
// cacheable request uses a key never sent before, so planned misses
// miss. /v1/stats deltas check both. Kinds, repeats, modes and the
// target's rank count are dealt from shuffled decks, so the mix holds
// exactly over every deck rather than on average: the tail latency
// rests on a few dozen slow requests, whose number must not depend on
// the seed.
const (
	serveSetups = 3
	// The pool is sized for the run length: strip variants per measured
	// second (four sets each), a quarter of them held back for uploads.
	serveVariantsPerSecond = 12
)

var (
	serveStripRanks = []int{4, 8, 16, 32}
	serveKinds      = []string{"grid5000", "xdsl", "lan"}
	serveLevels     = []dperf.Level{dperf.O0, dperf.O1, dperf.O2, dperf.O3}
)

var errExhausted = errors.New("fresh-key pool exhausted before the run ended")

// Request kinds and their share of the timed stream, in requests per
// deck of 100.
const (
	kPredict = iota
	kSweep
	kScan
	kUpload
	kList
	kStats
	numKinds
)

var (
	kindNames  = [numKinds]string{"predict", "sweep", "scan", "upload", "list", "stats"}
	kindCounts = []int{55, 10, 15, 2, 9, 9}
	// One in four predicts, sweeps and scans repeats an earlier key.
	repeatCounts = []int{3, 1}
)

// Mode variants of predict and sweep keys; count is the variant's
// share of its deck.
type variant struct {
	name  string
	mode  string
	noFF  bool
	count int
}

var (
	predictVariants = []variant{{"des", "des", false, 11}, {"auto", "auto", false, 3}, {"analytic", "analytic", false, 3}, {"des-noff", "des", true, 3}}
	sweepVariants   = []variant{{"des", "des", false, 2}, {"auto", "auto", false, 1}, {"analytic", "analytic", false, 1}}
)

// Request bodies, mirroring dperfd's JSON request shapes.
type predictBody struct {
	Digest        string `json:"digest"`
	Platform      string `json:"platform,omitempty"`
	NoFastForward bool   `json:"no_fastforward,omitempty"`
	PredictMode   string `json:"predict_mode,omitempty"`
}

type sweepBody struct {
	Digest        string   `json:"digest"`
	Platforms     []string `json:"platforms,omitempty"`
	Schemes       []string `json:"schemes,omitempty"`
	NoFastForward bool     `json:"no_fastforward,omitempty"`
	PredictMode   string   `json:"predict_mode,omitempty"`
}

type scanBody struct {
	BandwidthsBps []float64 `json:"bandwidths_bps"`
	LatenciesS    []float64 `json:"latencies_s"`
	SpeedsHz      []float64 `json:"speeds_hz"`
}

// serveSet is one pool trace set, encoded.
type serveSet struct {
	data     []byte
	digest   string
	ranks    int
	eligible bool // the analytic tier accepts it
}

// sreq is one request of the stream and, once sent, its outcome.
type sreq struct {
	idx    int
	kind   int
	method string
	path   string
	body   []byte
	set    *serveSet // upload, predict and sweep target
	v      variant   // predict and sweep
	plat   string    // predict
	scan   *scanBody
	orig   *sreq // the request a repeat repeats
	dep    *sreq // must complete before this one is sent
	warmup bool

	done   chan struct{}
	status int
	resp   []byte
	lat    time.Duration
	end    time.Time
	err    error
}

func (r *sreq) fresh() bool {
	return r.orig == nil && (r.kind == kPredict || r.kind == kSweep || r.kind == kScan)
}

// pkey is an unused fresh key.
type pkey struct {
	set  *serveSet
	dep  *sreq
	plat string
}

// stream generates the request sequence. Requests are drawn in order
// under a lock, so the same seed gives the same sequence whichever
// connection sends which request.
type stream struct {
	mu       sync.Mutex
	rng      *rand.Rand
	reqs     []*sreq
	predict  map[string][]pkey // variant|ranks -> unused keys
	sweep    map[string][]pkey
	decks    map[string][]int
	held     []*serveSet
	prior    [numKinds][]*sreq // fresh requests a repeat may repeat
	scanKeys map[string]bool
}

func (g *stream) addKeys(s *serveSet, dep *sreq) {
	for _, v := range predictVariants {
		if v.mode == "analytic" && !s.eligible {
			continue
		}
		for _, k := range serveKinds {
			g.predict[poolKey(v, s.ranks)] = append(g.predict[poolKey(v, s.ranks)], pkey{s, dep, k})
		}
	}
	for _, v := range sweepVariants {
		if v.mode == "analytic" && !s.eligible {
			continue
		}
		g.sweep[poolKey(v, s.ranks)] = append(g.sweep[poolKey(v, s.ranks)], pkey{s, dep, ""})
	}
}

// take removes a random unused key of the variant.
func (g *stream) take(pool map[string][]pkey, v string) (pkey, bool) {
	keys := pool[v]
	if len(keys) == 0 {
		return pkey{}, false
	}
	i := g.rng.IntN(len(keys))
	k := keys[i]
	keys[i] = keys[len(keys)-1]
	pool[v] = keys[:len(keys)-1]
	return k, true
}

func poolKey(v variant, ranks int) string { return v.name + "|" + strconv.Itoa(ranks) }

// deal draws the next index from the named shuffled deck, which holds
// each index i counts[i] times and refills when empty.
func (g *stream) deal(name string, counts []int) int {
	deck := g.decks[name]
	if len(deck) == 0 {
		for i, c := range counts {
			for j := 0; j < c; j++ {
				deck = append(deck, i)
			}
		}
		g.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	}
	g.decks[name] = deck[1:]
	return deck[0]
}

func variantCounts(vs []variant) []int {
	counts := make([]int, len(vs))
	for i, v := range vs {
		counts[i] = v.count
	}
	return counts
}

// rankCounts deals every pool rank count equally often.
var rankCounts = []int{1, 1, 1, 1}

func (g *stream) push(r *sreq) *sreq {
	r.idx = len(g.reqs)
	r.done = make(chan struct{})
	g.reqs = append(g.reqs, r)
	if r.fresh() {
		g.prior[r.kind] = append(g.prior[r.kind], r)
	}
	return r
}

func predictReq(k pkey, v variant) *sreq {
	body, _ := json.Marshal(predictBody{Digest: k.set.digest, Platform: k.plat, NoFastForward: v.noFF, PredictMode: v.mode})
	return &sreq{kind: kPredict, method: "POST", path: "/v1/predict", body: body, set: k.set, v: v, plat: k.plat, dep: k.dep}
}

func sweepReq(k pkey, v variant) *sreq {
	body, _ := json.Marshal(sweepBody{Digest: k.set.digest, Platforms: serveKinds, Schemes: []string{"sync", "async"},
		NoFastForward: v.noFF, PredictMode: v.mode})
	return &sreq{kind: kSweep, method: "POST", path: "/v1/sweep", body: body, set: k.set, v: v, dep: k.dep}
}

// next draws the next request of the stream.
func (g *stream) next() (*sreq, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	kind := g.deal("kind", kindCounts)
	if (kind == kPredict || kind == kSweep || kind == kScan) && g.deal("repeat/"+kindNames[kind], repeatCounts) == 1 && len(g.prior[kind]) > 0 {
		o := g.prior[kind][g.rng.IntN(len(g.prior[kind]))]
		return g.push(&sreq{kind: kind, method: o.method, path: o.path, body: o.body, orig: o, dep: o}), nil
	}
	switch kind {
	case kPredict:
		v := predictVariants[g.deal("predict", variantCounts(predictVariants))]
		pk := poolKey(v, serveStripRanks[g.deal("predict/ranks", rankCounts)])
		k, ok := g.take(g.predict, pk)
		if !ok {
			return nil, fmt.Errorf("predict %s keys: %w", pk, errExhausted)
		}
		return g.push(predictReq(k, v)), nil
	case kSweep:
		v := sweepVariants[g.deal("sweep", variantCounts(sweepVariants))]
		pk := poolKey(v, serveStripRanks[g.deal("sweep/ranks", rankCounts)])
		k, ok := g.take(g.sweep, pk)
		if !ok {
			return nil, fmt.Errorf("sweep %s keys: %w", pk, errExhausted)
		}
		return g.push(sweepReq(k, v)), nil
	case kScan:
		for {
			bw := (150 + 100*g.rng.Float64()) * platform.Mbps
			lat := (80 + 320*g.rng.Float64()) * 1e-6
			sp := (2.6 + 0.8*g.rng.Float64()) * 1e9
			sb := &scanBody{linspace(bw*0.99, bw*1.01, 4), linspace(lat*0.99, lat*1.01, 3), linspace(sp*0.995, sp*1.005, 2)}
			body, _ := json.Marshal(sb)
			if g.scanKeys[string(body)] {
				continue
			}
			g.scanKeys[string(body)] = true
			return g.push(&sreq{kind: kScan, method: "POST", path: "/v1/scan", body: body, scan: sb}), nil
		}
	case kUpload:
		if len(g.held) == 0 {
			return nil, fmt.Errorf("held-back uploads: %w", errExhausted)
		}
		s := g.held[0]
		g.held = g.held[1:]
		r := g.push(&sreq{kind: kUpload, method: "POST", path: "/v1/tracesets", body: s.data, set: s})
		g.addKeys(s, r)
		return r, nil
	case kList:
		return g.push(&sreq{kind: kList, method: "GET", path: "/v1/tracesets"}), nil
	default:
		return g.push(&sreq{kind: kStats, method: "GET", path: "/v1/stats"}), nil
	}
}

// servePool generates the seed's trace sets: strip variants re-bound at
// every pool rank count, and obstacle@8 at reduced rounds, O0–O3.
func servePool(e *env) (preload, held []*serveSet, err error) {
	rng := e.rng(200)
	seen := map[string]bool{}
	add := func(ts *dperf.TraceSet) (*serveSet, error) {
		if _, err := ts.Template(); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := ts.WriteBinary(&buf); err != nil {
			return nil, err
		}
		s := &serveSet{data: buf.Bytes(), digest: store.Digest(buf.Bytes()), ranks: ts.Ranks,
			eligible: analytic.Eligible(ts.Source()) == nil}
		if seen[s.digest] {
			return nil, nil
		}
		seen[s.digest] = true
		return s, nil
	}
	sw0 := dperf.DefaultStripObstacleWorkload()
	base, err := dperf.AnalyzeSource(sw0.Source(), sw0.ScaleParams())
	if err != nil {
		return nil, nil, err
	}
	// Some strip shapes factor into bindings that pin explicit ranks and
	// cannot be re-bound; ScaleShared rejects them and the draw moves on.
	variants := serveVariantsPerSecond * int(e.seconds/time.Second)
	for v, tries := 0, 0; v < variants; tries++ {
		if tries > 4*variants {
			return nil, nil, fmt.Errorf("only %d of %d strip variants are scale-shareable", v, tries)
		}
		sw := dperf.StripObstacleWorkload{
			W: int64(16 + 8*rng.IntN(3)), H: int64(2 + rng.IntN(3)),
			Rounds: int64(8 + rng.IntN(9)), Sweeps: int64(1 + rng.IntN(2)),
		}
		ss, err := base.WithWorkload(sw).ScaleShared(4, dperf.WithLevel(serveLevels[v%len(serveLevels)]))
		if err != nil {
			continue
		}
		v++
		for _, r := range serveStripRanks {
			ts, err := ss.SweepTraces(r)
			if err != nil {
				return nil, nil, err
			}
			s, err := add(ts)
			if err != nil {
				return nil, nil, err
			}
			if s == nil {
				continue
			}
			if v <= variants/4 {
				held = append(held, s)
			} else {
				preload = append(preload, s)
			}
		}
	}
	for _, lvl := range serveLevels {
		w := dperf.ObstacleWorkload{N: 1200, Rounds: int64(4 + 2*rng.IntN(3)), Sweeps: 15, BenchN: 32}
		a, err := dperf.AnalyzeSource(w.Source(), w.ScaleParams())
		if err != nil {
			return nil, nil, err
		}
		ts, err := a.WithWorkload(w).Traces(dperf.WithLevel(lvl), dperf.WithRanks(8))
		if err != nil {
			return nil, nil, err
		}
		s, err := add(ts)
		if err != nil {
			return nil, nil, err
		}
		if s != nil {
			preload = append(preload, s)
		}
	}
	rng.Shuffle(len(preload), func(i, j int) { preload[i], preload[j] = preload[j], preload[i] })
	rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	return preload, held, nil
}

// send runs one request on the client and records its outcome, in a
// span named after the endpoint (traced runs).
func send(tr *tracer, c *client, r *sreq) {
	if r.dep != nil {
		<-r.dep.done
	}
	sp := tr.begin("dperfd."+kindNames[r.kind], int64(r.idx), -1)
	r.status, r.resp, r.lat, r.err = c.do(r.method, r.path, r.body)
	r.end = time.Now()
	tr.end(sp, float64(len(r.resp)))
	if r.err == nil && r.status/100 != 2 {
		r.err = fmt.Errorf("HTTP %d: %s", r.status, strings.TrimSpace(string(r.resp)))
	}
	close(r.done)
}

type statsSnap struct {
	TraceSets int   `json:"trace_sets"`
	Entries   int   `json:"result_cache_entries"`
	Hits      int64 `json:"result_cache_hits"`
	Misses    int64 `json:"result_cache_misses"`
	Idle      int   `json:"idle_replay_sessions"`
}

func getStats(c *client) (statsSnap, error) {
	var s statsSnap
	status, body, _, err := c.do("GET", "/v1/stats", nil)
	if err != nil {
		return s, err
	}
	if status != 200 {
		return s, fmt.Errorf("/v1/stats: HTTP %d", status)
	}
	return s, json.Unmarshal(body, &s)
}

// serveSetup starts a server, uploads the preload and sends the
// warm-ups. It returns the server, its client and the set-up time.
func serveSetup(e *env, rep int, preload []*serveSet, uploads, warmups []*sreq) (*dperfdProc, *client, time.Duration, error) {
	start := time.Now()
	srv, err := startDperfd(e.dperfd, filepath.Join(e.out, "run", fmt.Sprintf("serve-%d-%d", e.seed, rep)))
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(srv.base)
	for i, s := range preload {
		r := uploads[i]
		r.status, r.resp, r.lat, r.err = c.do("POST", "/v1/tracesets", s.data)
		if r.err == nil && r.status != 201 {
			r.err = fmt.Errorf("preload upload: HTTP %d: %s", r.status, r.resp)
		}
		if r.err != nil {
			srv.stop()
			return nil, nil, 0, r.err
		}
	}
	for _, w := range warmups {
		w.status, w.resp, w.lat, w.err = c.do(w.method, w.path, w.body)
		if w.err == nil && w.status != 200 {
			w.err = fmt.Errorf("warm-up: HTTP %d: %s", w.status, w.resp)
		}
		if w.err != nil {
			srv.stop()
			return nil, nil, 0, w.err
		}
	}
	return srv, c, time.Since(start), nil
}

func runServe(e *env) (*outcome, error) {
	out := &outcome{}
	genStart := time.Now()
	preload, held, err := servePool(e)
	if err != nil {
		return nil, fmt.Errorf("generating the trace-set pool: %w", err)
	}
	g := &stream{rng: e.rng(201), predict: map[string][]pkey{}, sweep: map[string][]pkey{}, decks: map[string][]int{},
		held: held, scanKeys: map[string]bool{}}
	uploads := make([]*sreq, len(preload))
	for i, s := range preload {
		uploads[i] = &sreq{kind: kUpload, set: s}
		g.addKeys(s, nil)
	}
	// One warm-up predict per platform kind × rank count, taken from
	// the fast-forward DES keys so the timed stream never re-sends it
	// as fresh; repeats may repeat it.
	byRanks := map[int]*serveSet{}
	var rankOrder []int
	for _, s := range preload {
		if byRanks[s.ranks] == nil {
			byRanks[s.ranks] = s
			rankOrder = append(rankOrder, s.ranks)
		}
	}
	var warmups []*sreq
	for _, r := range rankOrder {
		for _, k := range serveKinds {
			name := poolKey(predictVariants[0], r)
			keys := g.predict[name]
			for i, pk := range keys {
				if pk.set == byRanks[r] && pk.plat == k {
					g.predict[name] = append(keys[:i], keys[i+1:]...)
					w := g.push(predictReq(pk, predictVariants[0]))
					w.warmup = true
					close(w.done)
					warmups = append(warmups, w)
					break
				}
			}
		}
	}

	var srv *dperfdProc
	var c *client
	for rep := 0; rep < serveSetups; rep++ {
		if srv != nil {
			c.close()
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		srv, c, d, err = serveSetup(e, rep, preload, uploads, warmups)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, d)
	}
	defer srv.stop()
	defer c.close()

	before, err := getStats(c)
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	var genErr error
	var errOnce sync.Once
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < e.seconds {
				r, err := g.next()
				if err != nil {
					errOnce.Do(func() { genErr = err })
					return
				}
				send(e.tr, c, r)
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	clientCPU := selfCPU() - cpu0
	if genErr != nil {
		return nil, fmt.Errorf("after %d requests in %.1f s: %w", len(g.reqs)-len(warmups), out.elapsed.Seconds(), genErr)
	}
	out.peakRSSMB, err = procPeakRSSMB(srv.pid())
	if err != nil {
		return nil, fmt.Errorf("reading dperfd peak RSS: %w", err)
	}
	after, err := getStats(c)
	if err != nil {
		return nil, err
	}

	timed := g.reqs[len(warmups):]
	win := make([]int, int(out.elapsed/time.Second)+1)
	for _, r := range timed {
		win[int(r.end.Sub(start)/time.Second)]++
	}
	out.notes = append(out.notes, fmt.Sprintf("serve: completions per second %v", win))
	var planHits, planMisses int64
	for _, r := range timed {
		out.attempted++
		switch {
		case r.orig != nil:
			planHits++
		case r.fresh():
			planMisses++
		}
		if r.err != nil {
			out.fail("request %d %s: %v", r.idx, kindNames[r.kind], r.err)
			continue
		}
		out.latencies = append(out.latencies, r.lat)
		switch r.kind {
		case kPredict:
			out.configs++
		case kSweep:
			out.configs += int64(len(serveKinds) * 2)
		case kScan:
			o := r
			if r.orig != nil {
				o = r.orig
			}
			out.configs += int64(len(o.scan.BandwidthsBps) * len(o.scan.LatenciesS) * len(o.scan.SpeedsHz))
		}
	}
	if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != planHits || m != planMisses {
		out.fail("cache guard: planned %d hits and %d misses, /v1/stats counted %d and %d", planHits, planMisses, h, m)
	}

	// Every distinct response must equal the library's rendering of the
	// same request, and every repeat its key's first response. The
	// in-process replay composes the same library calls as the handlers;
	// traced runs time it for the per-layer numbers.
	genTime := time.Since(genStart) - out.elapsed
	for _, d := range out.setups {
		genTime -= d
	}
	verifyStart := time.Now()
	ref, err := newRefServer()
	if err != nil {
		return nil, err
	}
	lay := &serveLayers{}
	for _, r := range uploads {
		if err := ref.checkUpload(e.tr, r, lay); err != nil {
			out.fail("preload upload: %v", err)
		}
	}
	// Timed uploads are admitted first, in stream order, so every render
	// finds its set. Traced runs render serially, so the spans time the
	// library alone; untraced runs use both cores.
	var renders []*sreq
	for _, r := range g.reqs {
		switch {
		case r.err != nil:
		case r.kind == kUpload:
			if err := ref.checkUpload(e.tr, r, lay); err != nil {
				out.fail("request %d upload: %v", r.idx, err)
			}
		default:
			renders = append(renders, r)
		}
	}
	workers := runtime.NumCPU()
	if e.tr.on {
		workers = 1
	}
	var (
		nextRender atomic.Int64
		failMu     sync.Mutex
		vwg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		vwg.Add(1)
		go func() {
			defer vwg.Done()
			for i := nextRender.Add(1) - 1; i < int64(len(renders)); i = nextRender.Add(1) - 1 {
				r := renders[i]
				if err := ref.check(e.tr, r, lay); err != nil {
					failMu.Lock()
					out.fail("request %d %s: %v", r.idx, kindNames[r.kind], err)
					failMu.Unlock()
				}
			}
		}()
	}
	vwg.Wait()

	if e.tr.on {
		out.layers = lay.metrics(e.tr, timed, before, after, clientCPU, out.elapsed)
		out.layers["bench.trace_overhead_pct"] = traceOverheadPct(e.tr, out.elapsed)
	}
	out.notes = append(out.notes, fmt.Sprintf("serve: %d preloaded + %d uploaded sets, %d requests (%d hits, %d misses), client CPU %.1f%% of %d cores; pool generation %.1f s, verification %.1f s",
		len(preload), countKind(timed, kUpload), len(timed), planHits, planMisses,
		100*clientCPU.Seconds()/(out.elapsed.Seconds()*float64(runtime.NumCPU())), runtime.NumCPU(),
		genTime.Seconds(), time.Since(verifyStart).Seconds()))
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return out, nil
}

func countKind(rs []*sreq, kind int) int {
	n := 0
	for _, r := range rs {
		if r.kind == kind && r.err == nil {
			n++
		}
	}
	return n
}

// refServer renders responses in-process through the library calls
// dperfd's handlers compose, with the same shared serving state.
type refServer struct {
	st        *store.Store
	predictor *dperf.Predictor
	periods   *dperf.PeriodCache
	pool      *dperf.SessionPool
	scanFam   dperf.ScanFamily

	mu        sync.Mutex
	certified map[string]bool // (digest, platform) pairs the analytic tier has seen
}

func newRefServer() (*refServer, error) {
	st, err := store.Open("")
	if err != nil {
		return nil, err
	}
	plat, err := capfamily.Star(2)
	if err != nil {
		return nil, err
	}
	return &refServer{
		st: st, predictor: dperf.NewPredictor(), periods: dperf.NewPeriodCache(), pool: dperf.NewSessionPool(),
		scanFam: dperf.ScanFamily{
			Platform:  plat,
			NumParams: capfamily.NumParams,
			Build:     capfamily.Family(plat, 2, 256, 40, p2psap.Synchronous),
			Key:       "capfamily/ghost-exchange/p2/n256/r40",
		},
		certified: map[string]bool{},
	}, nil
}

// traceSetInfo mirrors dperfd's upload response.
type traceSetInfo struct {
	Digest   string  `json:"digest"`
	Size     int64   `json:"size_bytes"`
	Workload string  `json:"workload,omitempty"`
	Ranks    int     `json:"ranks"`
	Records  int64   `json:"records"`
	Ops      int     `json:"ops"`
	Analytic bool    `json:"analytic_eligible"`
	Created  bool    `json:"created,omitempty"`
	Scatter  float64 `json:"scatter_bytes"`
	Gather   float64 `json:"gather_bytes"`
}

func indentJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func (rs *refServer) checkUpload(tr *tracer, r *sreq, lay *serveLayers) error {
	sp := tr.begin("store.put", int64(r.idx), -1)
	t0 := time.Now()
	e, created, err := rs.st.Put(r.set.data)
	rs.mu.Lock()
	lay.inproc(r, time.Since(t0))
	rs.mu.Unlock()
	tr.end(sp, float64(len(r.set.data)))
	if err != nil {
		return err
	}
	want, err := indentJSON(traceSetInfo{
		Digest: e.Digest, Size: e.Size, Workload: e.Set.Workload, Ranks: e.Set.Ranks,
		Records: e.Stats.Records, Ops: e.Stats.Ops, Analytic: e.Stats.AnalyticEligible, Created: created,
		Scatter: e.Set.ScatterBytes, Gather: e.Set.GatherBytes,
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(want, r.resp) {
		return fmt.Errorf("upload response differs from the library's:\n got %s\nwant %s", r.resp, want)
	}
	return nil
}

func (rs *refServer) options(v variant) ([]dperf.Option, error) {
	mode, err := dperf.ParsePredictMode(v.mode)
	if err != nil {
		return nil, err
	}
	return []dperf.Option{
		dperf.WithFastForward(!v.noFF),
		dperf.WithPredictMode(mode),
		dperf.WithPredictor(rs.predictor),
		dperf.WithPeriodCache(rs.periods),
		dperf.WithEngine(rs.pool),
	}, nil
}

// check verifies one sent request.
func (rs *refServer) check(tr *tracer, r *sreq, lay *serveLayers) error {
	if r.orig != nil {
		if !bytes.Equal(r.resp, r.orig.resp) {
			return fmt.Errorf("repeat of request %d returned different bytes", r.orig.idx)
		}
		return nil
	}
	switch r.kind {
	case kUpload:
		return rs.checkUpload(tr, r, lay)
	case kList:
		var l struct {
			TraceSets []traceSetInfo `json:"trace_sets"`
		}
		if err := json.Unmarshal(r.resp, &l); err != nil {
			return err
		}
		if len(l.TraceSets) == 0 {
			return fmt.Errorf("empty trace-set list")
		}
		return nil
	case kStats:
		var s statsSnap
		return json.Unmarshal(r.resp, &s)
	}
	want, err := rs.render(tr, r, lay)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, r.resp) {
		return fmt.Errorf("response (%d bytes) differs from the library's rendering (%d bytes)", len(r.resp), len(want))
	}
	return nil
}

func (rs *refServer) render(tr *tracer, r *sreq, lay *serveLayers) ([]byte, error) {
	var e *store.Entry
	if r.set != nil {
		var ok bool
		if e, ok = rs.st.Get(r.set.digest); !ok {
			return nil, fmt.Errorf("trace set %s not admitted in-process", r.set.digest[:12])
		}
	}
	var buf bytes.Buffer
	switch r.kind {
	case kPredict:
		opts, err := rs.options(r.v)
		if err != nil {
			return nil, err
		}
		// The Predictor keys certificates by configuration, not by mode
		// or fast-forward flag: once an auto or analytic request has
		// certified (digest, platform), later ones are warm.
		ckey := r.set.digest + "|" + r.plat
		sp := tr.begin("dperf.predict", int64(r.idx), -1)
		t0 := time.Now()
		pred, err := e.Set.Predict(append(opts, dperf.WithPlatform(dperf.Kind(r.plat)))...)
		if err == nil {
			err = pred.WriteJSON(&buf)
		}
		d := time.Since(t0)
		if err != nil {
			tr.end(sp, 0)
			return nil, err
		}
		rs.mu.Lock()
		defer rs.mu.Unlock()
		// Name the span after the tier that answered; an auto request the
		// analytic tier declined ran the DES.
		name := "replay.des"
		switch {
		case r.warmup:
			name = "replay.first_touch"
		case pred.Tier == dperf.TierAnalytic && rs.certified[ckey]:
			name = "analytic.warm"
		case pred.Tier == dperf.TierAnalytic:
			name = "analytic.certify"
		case r.v.mode == "auto":
			name = "analytic.declined"
		}
		if r.v.mode != "des" {
			rs.certified[ckey] = true
		}
		tr.endAs(sp, name, 1)
		lay.inproc(r, d)
		if r.v.mode == "auto" {
			lay.autoN++
			if pred.Tier != dperf.TierAnalytic {
				lay.autoDeclined++
			}
		}
		if pred.Tier == dperf.TierDES && !r.v.noFF {
			lay.simRounds += pred.RoundsSimulated
			lay.ffRounds += pred.RoundsFastForwarded
		}
	case kSweep:
		opts, err := rs.options(r.v)
		if err != nil {
			return nil, err
		}
		space := dperf.Space{Schemes: []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous}}
		for _, k := range serveKinds {
			space.Platforms = append(space.Platforms, dperf.Kind(k))
		}
		sp := tr.begin("dperf.sweep", int64(r.idx), -1)
		t0 := time.Now()
		res, err := dperf.Sweep(e.Set, space, dperf.SweepOptions(opts...))
		if err == nil {
			err = res.WriteJSON(&buf)
		}
		d := time.Since(t0)
		if err != nil {
			tr.end(sp, 0)
			return nil, err
		}
		tr.end(sp, float64(len(res.Results)))
		rs.mu.Lock()
		lay.inproc(r, d)
		lay.sweepConfigs += len(res.Results)
		lay.sweepTime += d
		rs.mu.Unlock()
		if n := res.Failed(); n > 0 {
			return nil, fmt.Errorf("%d sweep rows failed", n)
		}
	case kScan:
		sb := r.scan
		np := rs.scanFam.NumParams
		var pts []float64
		for _, bw := range sb.BandwidthsBps {
			for _, lat := range sb.LatenciesS {
				for _, s := range sb.SpeedsHz {
					pts = append(pts, bw, lat, s)
				}
			}
		}
		results := make([]scanPoint, len(pts)/np)
		sp := tr.begin("dperf.scan", int64(r.idx), -1)
		t0 := time.Now()
		_, err := rs.predictor.Scan(rs.scanFam, pts, func(i int, res *dperf.EngineResult) {
			results[i] = scanPoint{pts[i*np], pts[i*np+1], pts[i*np+2],
				res.PredictedSeconds, res.ScatterSeconds, res.ComputeSeconds, res.GatherSeconds}
		})
		var body []byte
		if err == nil {
			body, err = indentJSON(scanResponse{1, "ghost-exchange", 2, 256, 40, results})
		}
		d := time.Since(t0)
		tr.end(sp, float64(len(results)))
		if err != nil {
			return nil, err
		}
		rs.mu.Lock()
		lay.inproc(r, d)
		rs.mu.Unlock()
		buf.Write(body)
	}
	return buf.Bytes(), nil
}

// scanPoint and scanResponse mirror dperfd's /v1/scan response.
type scanPoint struct {
	BandwidthBps float64 `json:"bandwidth_bps"`
	LatencyS     float64 `json:"latency_s"`
	SpeedHz      float64 `json:"speed_hz"`
	PredictedS   float64 `json:"predicted_s"`
	ScatterS     float64 `json:"scatter_s"`
	ComputeS     float64 `json:"compute_s"`
	GatherS      float64 `json:"gather_s"`
}

type scanResponse struct {
	Version int         `json:"dperfd_scan_version"`
	Family  string      `json:"family"`
	Peers   int         `json:"peers"`
	N       int         `json:"n"`
	Rounds  int         `json:"rounds"`
	Results []scanPoint `json:"results"`
}

// serveLayers collects the counts the in-process replay reads where
// the work happens.
type serveLayers struct {
	overhead            []time.Duration // client latency minus in-process time, timed requests
	autoN, autoDeclined int
	simRounds, ffRounds int64
	sweepConfigs        int
	sweepTime           time.Duration
}

func (l *serveLayers) inproc(r *sreq, d time.Duration) {
	if !r.warmup && r.lat > 0 && r.kind != kUpload {
		l.overhead = append(l.overhead, r.lat-d)
	}
}

func (l *serveLayers) metrics(tr *tracer, timed []*sreq, before, after statsSnap, clientCPU, wall time.Duration) map[string]float64 {
	st := tr.stats()
	lat := func(keep func(*sreq) bool) []time.Duration {
		var ds []time.Duration
		for _, r := range timed {
			if r.err == nil && keep(r) {
				ds = append(ds, r.lat)
			}
		}
		return ds
	}
	freshOf := func(kind int) []time.Duration {
		return lat(func(r *sreq) bool { return r.kind == kind && r.orig == nil })
	}
	m := map[string]float64{
		"store.put_ms":            layerMedian(st, "store.put", time.Millisecond),
		"replay.des_ms":           layerMedian(st, "replay.des", time.Millisecond),
		"replay.first_touch_ms":   layerMean(st, "replay.first_touch", time.Millisecond),
		"analytic.certify_ms":     layerMedian(st, "analytic.certify", time.Millisecond),
		"analytic.warm_us":        layerMedian(st, "analytic.warm", time.Microsecond),
		"dperfd.upload_p50_ms":    ms(median(freshOf(kUpload))),
		"dperfd.predict_p50_ms":   ms(median(freshOf(kPredict))),
		"dperfd.predict_p99_ms":   ms(quantileOf(freshOf(kPredict), 0.99)),
		"dperfd.sweep_p50_ms":     ms(median(freshOf(kSweep))),
		"dperfd.sweep_p99_ms":     ms(quantileOf(freshOf(kSweep), 0.99)),
		"dperfd.scan_p50_ms":      ms(median(freshOf(kScan))),
		"dperfd.hit_p50_ms":       ms(median(lat(func(r *sreq) bool { return r.orig != nil }))),
		"dperfd.http_overhead_ms": ms(median(l.overhead)),
		"dperfd.idle_sessions":    float64(after.Idle),
		"bench.client_cpu_share":  clientCPU.Seconds() / (wall.Seconds() * float64(runtime.NumCPU())),
	}
	if h, miss := after.Hits-before.Hits, after.Misses-before.Misses; h+miss > 0 {
		m["dperfd.cache_hit_ratio"] = float64(h) / float64(h+miss)
	}
	if l.simRounds+l.ffRounds > 0 {
		m["replay.ff_round_ratio"] = float64(l.ffRounds) / float64(l.simRounds+l.ffRounds)
	}
	if l.autoN > 0 {
		m["analytic.decline_ratio"] = float64(l.autoDeclined) / float64(l.autoN)
	}
	if l.sweepTime > 0 {
		m["dperf.sweep_configs_per_s"] = float64(l.sweepConfigs) / l.sweepTime.Seconds()
	}
	return m
}
