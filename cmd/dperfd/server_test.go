package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/dperf"
	"repro/internal/capfamily"
	"repro/internal/p2psap"
	"repro/internal/store"
)

var (
	fixtureOnce sync.Once
	fixtureBin  []byte
	fixtureErr  error
)

// fixtureBytes returns one small 2-rank obstacle trace set, serialized
// once in the binary artifact format.
func fixtureBytes(t *testing.T) []byte {
	t.Helper()
	fixtureOnce.Do(func() {
		w := dperf.ObstacleWorkload{N: 128, Rounds: 4, Sweeps: 2, BenchN: 16}
		a, err := dperf.New(w).Analyze()
		if err != nil {
			fixtureErr = err
			return
		}
		ts, err := a.Traces(dperf.WithRanks(2))
		if err != nil {
			fixtureErr = err
			return
		}
		var b bytes.Buffer
		if fixtureErr = ts.WriteBinary(&b); fixtureErr == nil {
			fixtureBin = b.Bytes()
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureBin
}

// fixtureSet parses the fixture artifact the way the store does, so
// library-path expectations replay the same bytes the server serves.
func fixtureSet(t *testing.T) *dperf.TraceSet {
	t.Helper()
	ts, err := dperf.ReadTraceSetData("fixture", fixtureBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(st)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(hs.Close)
	t.Cleanup(func() { s.pool.CloseIdle() })
	return s, hs
}

// upload puts the fixture artifact and returns its digest.
func upload(t *testing.T, hs *httptest.Server) string {
	t.Helper()
	resp, err := http.Post(hs.URL+"/v1/tracesets", "application/octet-stream", bytes.NewReader(fixtureBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var info traceSetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Digest != store.Digest(fixtureBytes(t)) {
		t.Fatalf("upload digest %s, want %s", info.Digest, store.Digest(fixtureBytes(t)))
	}
	return info.Digest
}

// postJSON sends a request body and returns the status and raw
// response bytes.
func postJSON(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// libraryPredict renders the single-process CLI path for one request:
// a fresh default engine, no shared caches.
func libraryPredict(t *testing.T, kind dperf.Kind, workers int) []byte {
	t.Helper()
	pred, err := fixtureSet(t).Predict(
		dperf.WithPlatform(kind),
		dperf.WithFastForward(true),
		dperf.WithPredictMode(dperf.PredictDES),
		dperf.WithReplayWorkers(workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pred.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPredictDifferential is the service's core contract: responses
// are byte-identical to the single-process library/CLI output, for the
// pooled serial engine and the partitioned parallel one, cold and
// warm.
func TestPredictDifferential(t *testing.T) {
	s, hs := newTestServer(t)
	digest := upload(t, hs)

	for _, tc := range []struct {
		name    string
		req     predictRequest
		kind    dperf.Kind
		workers int
	}{
		{"default", predictRequest{Digest: digest}, dperf.KindCluster, 1},
		{"lan", predictRequest{Digest: digest, Platform: "lan"}, dperf.KindLAN, 1},
		{"parallel", predictRequest{Digest: digest, ReplayWorkers: 2}, dperf.KindCluster, 2},
	} {
		want := libraryPredict(t, tc.kind, tc.workers)
		for round := 0; round < 2; round++ { // round 1 must hit the result cache
			code, got := postJSON(t, hs.URL+"/v1/predict", tc.req)
			if code != http.StatusOK {
				t.Fatalf("%s round %d: status %d: %s", tc.name, round, code, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s round %d: response diverged from library output:\n got: %s\nwant: %s", tc.name, round, got, want)
			}
		}
	}
	s.mu.Lock()
	hits, misses := s.hits, s.misses
	s.mu.Unlock()
	if misses != 3 || hits != 3 {
		t.Fatalf("result cache hits=%d misses=%d, want 3/3", hits, misses)
	}
	if s.pool.Idle() == 0 {
		t.Fatal("pool kept no session hot after serial predicts")
	}
}

func TestSweepDifferential(t *testing.T) {
	_, hs := newTestServer(t)
	digest := upload(t, hs)

	res, err := dperf.Sweep(fixtureSet(t), dperf.Space{
		Platforms: []dperf.Kind{dperf.KindCluster},
		Schemes:   []dperf.Scheme{dperf.Synchronous, dperf.Asynchronous},
	}, dperf.SweepOptions(dperf.WithFastForward(true), dperf.WithPredictMode(dperf.PredictDES)))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	req := sweepRequest{Digest: digest, Platforms: []string{"grid5000"}, Schemes: []string{"sync", "async"}}
	for round := 0; round < 2; round++ {
		code, got := postJSON(t, hs.URL+"/v1/sweep", req)
		if code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, code, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("round %d: sweep response diverged from library output:\n got: %s\nwant: %s", round, got, want.Bytes())
		}
	}
}

func TestScanDifferential(t *testing.T) {
	_, hs := newTestServer(t)

	req := scanRequest{
		BandwidthsBps: []float64{2.5e7, 2.6e7},
		LatenciesS:    []float64{100e-6, 900e-6},
		SpeedsHz:      []float64{3e9},
	}
	code, got := postJSON(t, hs.URL+"/v1/scan", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	var resp scanResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Version != scanVersion || len(resp.Results) != 4 {
		t.Fatalf("bad scan response shape: version %d, %d results", resp.Version, len(resp.Results))
	}
	// Every served point must be bit-identical to a from-scratch
	// analytic evaluation — the same cross-check the CLI -scan asserts.
	for _, pt := range resp.Results {
		ref, err := capfamily.Evaluate(scanPeers, scanN, scanRounds, p2psap.Synchronous, pt.BandwidthBps, pt.LatencyS, pt.SpeedHz)
		if err != nil {
			t.Fatal(err)
		}
		if pt.PredictedS != ref.PredictedSeconds || pt.ScatterS != ref.ScatterSeconds ||
			pt.ComputeS != ref.ComputeSeconds || pt.GatherS != ref.GatherSeconds {
			t.Fatalf("scan point (%g,%g,%g) diverged from analytic evaluation: %+v vs %+v",
				pt.BandwidthBps, pt.LatencyS, pt.SpeedHz, pt, ref)
		}
	}

	// The cached replay must be byte-identical.
	code, again := postJSON(t, hs.URL+"/v1/scan", req)
	if code != http.StatusOK || !bytes.Equal(again, got) {
		t.Fatalf("cached scan diverged (status %d)", code)
	}
}

// TestConcurrentDifferential hammers one server with a mix of predict,
// sweep and scan requests from many goroutines. Every response must be
// byte-identical to the library output no matter which request warmed
// which cache first — run under -race, this is also the shared-state
// audit for the predictor, period cache, session pool and result
// cache.
func TestConcurrentDifferential(t *testing.T) {
	_, hs := newTestServer(t)
	digest := upload(t, hs)

	wantCluster := libraryPredict(t, dperf.KindCluster, 1)
	wantLAN := libraryPredict(t, dperf.KindLAN, 1)
	wantParallel := libraryPredict(t, dperf.KindCluster, 2)

	scanReq := scanRequest{
		BandwidthsBps: []float64{2.5e7, 2.55e7},
		LatenciesS:    []float64{100e-6},
		SpeedsHz:      []float64{3e9},
	}
	var wantScan []byte
	{
		code, body := postJSON(t, hs.URL+"/v1/scan", scanReq)
		if code != http.StatusOK {
			t.Fatalf("scan priming failed: %d %s", code, body)
		}
		wantScan = body
	}

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var (
					code int
					got  []byte
					want []byte
					kind string
				)
				switch (g + r) % 4 {
				case 0:
					kind = "predict/grid5000"
					code, got = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest})
					want = wantCluster
				case 1:
					kind = "predict/lan"
					code, got = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest, Platform: "lan"})
					want = wantLAN
				case 2:
					kind = "predict/parallel"
					code, got = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest, ReplayWorkers: 2})
					want = wantParallel
				case 3:
					kind = "scan"
					code, got = postJSON(t, hs.URL+"/v1/scan", scanReq)
					want = wantScan
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", kind, code, got)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("%s: concurrent response diverged from library output", kind)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHostileRequests(t *testing.T) {
	_, hs := newTestServer(t)
	digest := upload(t, hs)

	// Garbage upload: rejected with the artifact label.
	resp, err := http.Post(hs.URL+"/v1/tracesets", "application/octet-stream", strings.NewReader("not a trace set"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "traceset ") {
		t.Fatalf("garbage upload: status %d body %q", resp.StatusCode, body)
	}

	// Truncated binary upload: rejected with a byte offset.
	bin := fixtureBytes(t)
	resp, err = http.Post(hs.URL+"/v1/tracesets", "application/octet-stream", bytes.NewReader(bin[:len(bin)/2]))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "byte offset") {
		t.Fatalf("truncated upload: status %d body %q", resp.StatusCode, body)
	}

	// Unknown digest: 404.
	code, body := postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: strings.Repeat("0", 64)})
	if code != http.StatusNotFound {
		t.Fatalf("unknown digest: status %d body %s", code, body)
	}

	// Unknown platform: well-formed but unpredictable.
	code, body = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest, Platform: "nope"})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown platform: status %d body %s", code, body)
	}

	// Bad mode / bad workers: rejected before touching the store.
	code, body = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest, PredictMode: "psychic"})
	if code != http.StatusBadRequest {
		t.Fatalf("bad mode: status %d body %s", code, body)
	}
	code, body = postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest, ReplayWorkers: -1})
	if code != http.StatusBadRequest {
		t.Fatalf("bad workers: status %d body %s", code, body)
	}

	// Malformed JSON body.
	resp, err = http.Post(hs.URL+"/v1/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}

	// Over-cost requests: 413 before any allocation, and the server
	// stays up. A 1000x1000x1000 scan grid is 10^9 points in a ~30 KB
	// body.
	axis := func(base float64) []float64 {
		v := make([]float64, 1000)
		for i := range v {
			v[i] = base * (1 + float64(i)/1000)
		}
		return v
	}
	code, body = postJSON(t, hs.URL+"/v1/scan", scanRequest{BandwidthsBps: axis(1e8), LatenciesS: axis(1e-4), SpeedsHz: axis(3e9)})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge scan grid: status %d body %.200s", code, body)
	}
	code, body = postJSON(t, hs.URL+"/v1/sweep", sweepRequest{Digest: digest, Workers: 1_000_000})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge sweep worker count: status %d body %s", code, body)
	}
	code, body = postJSON(t, hs.URL+"/v1/sweep", sweepRequest{Digest: digest, Ranks: []int{1_000_000}})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge sweep rank count: status %d body %s", code, body)
	}
	manyRanks := make([]int, maxSweepConfigs)
	for i := range manyRanks {
		manyRanks[i] = i + 1
	}
	code, body = postJSON(t, hs.URL+"/v1/sweep", sweepRequest{Digest: digest, Ranks: manyRanks})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("huge sweep grid: status %d body %.200s", code, body)
	}
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after over-cost requests: status %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, hs := newTestServer(t)
	digest := upload(t, hs)

	if code, body := postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest}); code != http.StatusOK {
		t.Fatalf("predict: %d %s", code, body)
	}
	postJSON(t, hs.URL+"/v1/predict", predictRequest{Digest: digest}) // warm hit

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.TraceSets != 1 || stats.ResultEntries != 1 || stats.ResultHits != 1 || stats.ResultMisses != 1 {
		t.Fatalf("stats off: %+v", stats)
	}

	// The trace-set listing and per-digest lookup agree.
	resp, err = http.Get(hs.URL + "/v1/tracesets/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info traceSetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Digest != digest || info.Ranks != 2 {
		t.Fatalf("lookup info off: %+v", info)
	}
}
