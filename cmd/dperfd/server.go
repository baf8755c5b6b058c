package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/dperf"
	"repro/internal/capfamily"
	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/store"
)

// Scan fixture: the same capacity-planning ghost-exchange family the
// CLI's -scan smoke path fixes, so the served family is cross-checked
// by the same bit-identity contract.
const (
	scanPeers  = 2
	scanN      = 256
	scanRounds = 40
	// scanFamilyKey names the family's shared tape cache on the
	// predictor; concurrent and repeated scans replay each other's
	// discovered regions.
	scanFamilyKey = "capfamily/ghost-exchange/p2/n256/r40"
)

// maxUploadBytes bounds one trace-set upload.
const maxUploadBytes = 256 << 20

// Request cost bounds. A request over any of them is answered with 413
// before its work is allocated: the 1 MiB body limit alone still lets
// a scan ask for ~10^14 grid points. Each bound sits far above what
// the CLI fixtures and the benchmark's serve workload send (24-point
// scans; 3-platform x 2-scheme sweeps at the set's own rank count).
const (
	maxScanPoints   = 1 << 14 // grid points in one scan
	maxSweepConfigs = 1 << 10 // platforms x ranks x schemes in one sweep
	maxSweepRanks   = 1 << 10 // one swept rank count
	maxSweepWorkers = 1 << 8  // sweep worker goroutines
)

// server is the dperfd state shared by every request: the
// content-addressed trace-set store, the analytic predictor (platform
// identity + certificate + tape caches), the steady-state period
// cache, the replay session pool, and the response cache.
//
// Every cache is stats-neutral by construction, which is the service's
// correctness story: a response is bit-identical to what a fresh
// single-process CLI run produces for the same inputs, no matter which
// requests warmed which caches first.
type server struct {
	store     *store.Store
	predictor *dperf.Predictor
	periods   *dperf.PeriodCache
	pool      *dperf.SessionPool
	scanFam   dperf.ScanFamily
	mux       *http.ServeMux

	mu      sync.Mutex
	results map[string][]byte // (endpoint, digest, canonical spec) → response bytes
	hits    int64
	misses  int64
}

// newServer assembles the service around an opened store.
func newServer(st *store.Store) (*server, error) {
	plat, err := capfamily.Star(scanPeers)
	if err != nil {
		return nil, err
	}
	s := &server{
		store:     st,
		predictor: dperf.NewPredictor(),
		periods:   dperf.NewPeriodCache(),
		pool:      dperf.NewSessionPool(),
		scanFam: dperf.ScanFamily{
			Platform:  plat,
			NumParams: capfamily.NumParams,
			Build:     capfamily.Family(plat, scanPeers, scanN, scanRounds, p2psap.Synchronous),
			Key:       scanFamilyKey,
		},
		results: make(map[string][]byte),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/tracesets", s.handlePutTraceSet)
	mux.HandleFunc("GET /v1/tracesets", s.handleListTraceSets)
	mux.HandleFunc("GET /v1/tracesets/{digest}", s.handleGetTraceSet)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/scan", s.handleScan)
	s.mux = mux
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// httpError reports a failure as plain text. Client-side problems are
// 400/404; anything reaching a replay error is still the client's spec
// (an unknown platform, an invalid scheme), so 422 marks "well-formed
// but unpredictable".
func httpError(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// statsResponse is the ops snapshot: sizes and hit counts only, no
// timings — everything here is about the caches, not the predictions.
type statsResponse struct {
	TraceSets         int   `json:"trace_sets"`
	ResultEntries     int   `json:"result_cache_entries"`
	ResultHits        int64 `json:"result_cache_hits"`
	ResultMisses      int64 `json:"result_cache_misses"`
	IdleReplaySession int   `json:"idle_replay_sessions"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := statsResponse{
		ResultEntries: len(s.results),
		ResultHits:    s.hits,
		ResultMisses:  s.misses,
	}
	s.mu.Unlock()
	resp.TraceSets = s.store.Len()
	resp.IdleReplaySession = s.pool.Idle()
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// traceSetInfo describes one stored set.
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

func infoFor(e *store.Entry) traceSetInfo {
	return traceSetInfo{
		Digest:   e.Digest,
		Size:     e.Size,
		Workload: e.Set.Workload,
		Ranks:    e.Set.Ranks,
		Records:  e.Stats.Records,
		Ops:      e.Stats.Ops,
		Analytic: e.Stats.AnalyticEligible,
		Scatter:  e.Set.ScatterBytes,
		Gather:   e.Set.GatherBytes,
	}
}

func (s *server) handlePutTraceSet(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("reading upload: %w", err))
		return
	}
	e, created, err := s.store.Put(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	info := infoFor(e)
	info.Created = created
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	writeJSON(w, info)
}

func (s *server) handleListTraceSets(w http.ResponseWriter, r *http.Request) {
	entries := s.store.List()
	infos := make([]traceSetInfo, len(entries))
	for i, e := range entries {
		infos[i] = infoFor(e)
	}
	writeJSON(w, struct {
		TraceSets []traceSetInfo `json:"trace_sets"`
	}{infos})
}

func (s *server) handleGetTraceSet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.store.Get(r.PathValue("digest"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown trace set %q", r.PathValue("digest")))
		return
	}
	writeJSON(w, infoFor(e))
}

// predictRequest mirrors the CLI's replay-only flags: -platform,
// -no-fastforward, -predict-mode, -replay-workers. Defaults match the
// CLI defaults, so an empty request body predicts exactly like
// `dperf -load-traces <set>`.
type predictRequest struct {
	Digest        string `json:"digest"`
	Platform      string `json:"platform,omitempty"`
	NoFastForward bool   `json:"no_fastforward,omitempty"`
	PredictMode   string `json:"predict_mode,omitempty"`
	ReplayWorkers int    `json:"replay_workers,omitempty"`
}

// normalize fills CLI defaults and validates the mode.
func (pr *predictRequest) normalize() (dperf.PredictMode, error) {
	if pr.Platform == "" {
		pr.Platform = "grid5000"
	}
	if pr.PredictMode == "" {
		pr.PredictMode = "des"
	}
	if pr.ReplayWorkers == 0 {
		pr.ReplayWorkers = 1
	}
	if pr.ReplayWorkers < 1 {
		return 0, fmt.Errorf("replay_workers must be >= 1, got %d", pr.ReplayWorkers)
	}
	return dperf.ParsePredictMode(pr.PredictMode)
}

// cacheKey canonicalizes the normalized request. Worker counts stay in
// the key only where they change engine labels (replay_workers does;
// sweep workers never appear in output and are excluded there).
func (pr *predictRequest) cacheKey() string {
	return fmt.Sprintf("predict|%s|%s|%t|%s|%d",
		pr.Digest, pr.Platform, pr.NoFastForward, pr.PredictMode, pr.ReplayWorkers)
}

// replayOptions are the shared-state options every replay-side request
// gets: the predictor pins platform identity (and serves the analytic
// tier), the period cache shares proven fast-forward jumps, and — for
// serial replays — the session pool keeps realized networks hot.
// replayWorkers > 1 selects the partitioned engine instead of the
// pool, exactly as the CLI does, so the engine label in responses
// matches CLI output byte for byte.
func (s *server) replayOptions(mode dperf.PredictMode, noFF bool, replayWorkers int) []dperf.Option {
	opts := []dperf.Option{
		dperf.WithFastForward(!noFF),
		dperf.WithPredictMode(mode),
		dperf.WithPredictor(s.predictor),
		dperf.WithPeriodCache(s.periods),
	}
	if replayWorkers > 1 {
		opts = append(opts, dperf.WithReplayWorkers(replayWorkers))
	} else {
		opts = append(opts, dperf.WithEngine(s.pool))
	}
	return opts
}

// cached serves key from the result cache, rendering on miss. Render
// results are cached only on success; errors are never cached.
func (s *server) cached(w http.ResponseWriter, key string, render func() ([]byte, error)) {
	s.mu.Lock()
	body, ok := s.results[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if !ok {
		var err error
		body, err = render()
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		s.mu.Lock()
		s.results[key] = body
		s.mu.Unlock()
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	mode, err := req.normalize()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	e, ok := s.store.Get(req.Digest)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown trace set %q", req.Digest))
		return
	}
	s.cached(w, req.cacheKey(), func() ([]byte, error) {
		opts := append(s.replayOptions(mode, req.NoFastForward, req.ReplayWorkers),
			dperf.WithPlatform(dperf.Kind(req.Platform)))
		pred, err := e.Set.Predict(opts...)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := pred.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// sweepRequest mirrors the CLI's sweep flags. Workers is execution
// strategy only — sweep output is byte-identical at any worker count —
// so it is excluded from the cache key.
type sweepRequest struct {
	Digest        string   `json:"digest"`
	Platforms     []string `json:"platforms,omitempty"`
	Ranks         []int    `json:"ranks,omitempty"`
	Schemes       []string `json:"schemes,omitempty"`
	NoFastForward bool     `json:"no_fastforward,omitempty"`
	PredictMode   string   `json:"predict_mode,omitempty"`
	ReplayWorkers int      `json:"replay_workers,omitempty"`
	Workers       int      `json:"workers,omitempty"`
}

func (sr *sweepRequest) normalize() (dperf.PredictMode, error) {
	if len(sr.Platforms) == 0 {
		// The CLI's default sweep spans all three evaluation platforms.
		sr.Platforms = []string{"grid5000", "xdsl", "lan"}
	}
	if len(sr.Schemes) == 0 {
		sr.Schemes = []string{"sync"}
	}
	if sr.PredictMode == "" {
		sr.PredictMode = "des"
	}
	if sr.ReplayWorkers == 0 {
		sr.ReplayWorkers = 1
	}
	if sr.ReplayWorkers < 1 {
		return 0, fmt.Errorf("replay_workers must be >= 1, got %d", sr.ReplayWorkers)
	}
	return dperf.ParsePredictMode(sr.PredictMode)
}

// checkCost bounds the sweep's configuration count, rank counts and
// worker count (see maxSweepConfigs).
func (sr *sweepRequest) checkCost() error {
	if sr.Workers > maxSweepWorkers {
		return fmt.Errorf("sweep asks for %d workers, limit %d", sr.Workers, maxSweepWorkers)
	}
	for _, r := range sr.Ranks {
		if r > maxSweepRanks {
			return fmt.Errorf("sweep asks for %d ranks, limit %d", r, maxSweepRanks)
		}
	}
	if n := len(sr.Platforms) * max(1, len(sr.Ranks)) * len(sr.Schemes); n > maxSweepConfigs {
		return fmt.Errorf("sweep spans %d configurations, limit %d", n, maxSweepConfigs)
	}
	return nil
}

func (sr *sweepRequest) cacheKey() string {
	ranks := make([]string, len(sr.Ranks))
	for i, r := range sr.Ranks {
		ranks[i] = strconv.Itoa(r)
	}
	return fmt.Sprintf("sweep|%s|%s|%s|%s|%t|%s|%d",
		sr.Digest, strings.Join(sr.Platforms, ","), strings.Join(ranks, ","),
		strings.Join(sr.Schemes, ","), sr.NoFastForward, sr.PredictMode, sr.ReplayWorkers)
}

// parseScheme mirrors the CLI's -sweep-schemes vocabulary.
func parseScheme(s string) (dperf.Scheme, error) {
	switch strings.TrimSpace(s) {
	case "sync", "synchronous":
		return dperf.Synchronous, nil
	case "async", "asynchronous":
		return dperf.Asynchronous, nil
	}
	return 0, fmt.Errorf("bad scheme %q (want sync or async)", s)
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	mode, err := req.normalize()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.checkCost(); err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	space := dperf.Space{Ranks: req.Ranks}
	for _, p := range req.Platforms {
		space.Platforms = append(space.Platforms, dperf.Kind(strings.TrimSpace(p)))
	}
	for _, sch := range req.Schemes {
		scheme, err := parseScheme(sch)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		space.Schemes = append(space.Schemes, scheme)
	}
	e, ok := s.store.Get(req.Digest)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown trace set %q", req.Digest))
		return
	}
	s.cached(w, req.cacheKey(), func() ([]byte, error) {
		opts := []dperf.SweepOption{
			dperf.SweepOptions(s.replayOptions(mode, req.NoFastForward, req.ReplayWorkers)...),
		}
		if req.Workers > 0 {
			opts = append(opts, dperf.SweepWorkers(req.Workers))
		}
		res, err := dperf.Sweep(e.Set, space, opts...)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// scanRequest selects the grid over the fixed ghost-exchange family.
// Empty axes default to the CLI -scan fixture grid.
type scanRequest struct {
	BandwidthsBps []float64 `json:"bandwidths_bps,omitempty"`
	LatenciesS    []float64 `json:"latencies_s,omitempty"`
	SpeedsHz      []float64 `json:"speeds_hz,omitempty"`
}

func (sr *scanRequest) normalize() {
	if len(sr.BandwidthsBps) == 0 {
		sr.BandwidthsBps = []float64{200 * platform.Mbps, 204 * platform.Mbps, 208 * platform.Mbps}
	}
	if len(sr.LatenciesS) == 0 {
		sr.LatenciesS = []float64{100e-6, 103e-6, 900e-6, 927e-6}
	}
	if len(sr.SpeedsHz) == 0 {
		sr.SpeedsHz = []float64{3e9, 3.06e9}
	}
}

// checkCost bounds the grid's point count by maxScanPoints. Each axis
// length is below the 1 MiB body size, so the product cannot overflow.
func (sr *scanRequest) checkCost() error {
	if n := len(sr.BandwidthsBps) * len(sr.LatenciesS) * len(sr.SpeedsHz); n > maxScanPoints {
		return fmt.Errorf("scan grid has %d points, limit %d", n, maxScanPoints)
	}
	return nil
}

func (sr *scanRequest) cacheKey() string {
	var b strings.Builder
	b.WriteString("scan")
	for _, axis := range [][]float64{sr.BandwidthsBps, sr.LatenciesS, sr.SpeedsHz} {
		b.WriteByte('|')
		for i, v := range axis {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return b.String()
}

// scanVersion guards the scan response format.
const scanVersion = 1

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

// handleScan evaluates the fixed symbolic family over the requested
// grid through the predictor's shared guarded-tape cache. The response
// carries only the closed-form results — which are bit-identical to a
// full analytic evaluation per the tape contract — never the
// replay/fallback split, which depends on cache warmth and would make
// cached responses distinguishable from cold ones.
func (s *server) handleScan(w http.ResponseWriter, r *http.Request) {
	var req scanRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	req.normalize()
	if err := req.checkCost(); err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	s.cached(w, req.cacheKey(), func() ([]byte, error) {
		np := s.scanFam.NumParams
		pts := make([]float64, 0, len(req.BandwidthsBps)*len(req.LatenciesS)*len(req.SpeedsHz)*np)
		for _, bw := range req.BandwidthsBps {
			for _, lat := range req.LatenciesS {
				for _, sp := range req.SpeedsHz {
					pts = append(pts, bw, lat, sp)
				}
			}
		}
		results := make([]scanPoint, len(pts)/np)
		_, err := s.predictor.Scan(s.scanFam, pts, func(i int, res *dperf.EngineResult) {
			results[i] = scanPoint{
				BandwidthBps: pts[i*np],
				LatencyS:     pts[i*np+1],
				SpeedHz:      pts[i*np+2],
				PredictedS:   res.PredictedSeconds,
				ScatterS:     res.ScatterSeconds,
				ComputeS:     res.ComputeSeconds,
				GatherS:      res.GatherSeconds,
			}
		})
		if err != nil {
			return nil, err
		}
		resp := scanResponse{
			Version: scanVersion,
			Family:  "ghost-exchange",
			Peers:   scanPeers,
			N:       scanN,
			Rounds:  scanRounds,
			Results: results,
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// sortedKeys is a test hook: the result-cache keys in deterministic
// order.
func (s *server) sortedKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.results))
	for k := range s.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
