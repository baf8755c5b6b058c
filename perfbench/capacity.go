package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/dperf"
	"repro/internal/capfamily"
	"repro/internal/p2psap"
	"repro/internal/platform"
)

// The capacity workload: one goroutine running capacity-planner
// sessions over the ghost-exchange family dperfd serves (2 peers,
// N=256, 40 rounds). Each session gets a fresh dperf.Predictor, so the
// work done does not depend on run length. A session runs a coarse grid
// of full analytic evaluations (capfamily.Evaluate), then guarded-tape
// scans (Predictor.Scan): a dense 40×20×8 grid around each of the two
// coarse points nearest the session's target time, and a few scattered
// points across the coarse box, which exercise guard fallback. No DES,
// HTTP or interpreter work happens here: the analytic kernel and the
// tapes do all of it.
//
// An op is one planner query: one coarse evaluation or one scan.
const (
	capPeers, capN, capRounds = 2, 256, 40
	capSparse                 = 6
	capSamples                = 4 // scan points per scan checked against capfamily.Evaluate
	capSessions               = 12
)

// capPlan holds a session's draws: u in [0, 1) places the coarse box's
// bandwidth and latency floors and spans and the target time between
// the grid's fastest and slowest answers; seed draws the rest.
type capPlan struct {
	u    [5]float64
	seed uint64
}

// capPlans draws n sessions as a Latin hypercube: along every dimension
// each of the n equal strata holds exactly one session. Session costs
// depend strongly on where the dense grids land, so stratifying keeps
// the work of a pass nearly the same from seed to seed.
func capPlans(rng *rand.Rand, n int) []capPlan {
	plans := make([]capPlan, n)
	for d := range plans[0].u {
		for i, stratum := range rng.Perm(n) {
			plans[i].u[d] = (float64(stratum) + rng.Float64()) / float64(n)
		}
	}
	for i := range plans {
		plans[i].seed = rng.Uint64()
	}
	return plans
}

type capSample struct {
	bw, lat, speed float64
	res            dperf.EngineResult
}

type capSession struct {
	evals, points, fallbacks, regions int64
	scanTime                          time.Duration
	samples                           []capSample
}

func logspace(lo, hi float64, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, float64(i)/float64(k-1))
	}
	return out
}

func linspace(lo, hi float64, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(k-1)
	}
	return out
}

// capacitySession runs one planner session. Each op's latency goes to
// lat; a failed op returns its error.
func capacitySession(tr *tracer, plan capPlan, plat *platform.Platform, id int64, lat func(time.Duration)) (*capSession, error) {
	s := &capSession{}
	rng := rand.New(rand.NewPCG(plan.seed, 301))
	root := tr.begin("capacity.session", id, -1)
	defer tr.end(root, 0)

	bwLo := (50 + 100*plan.u[0]) * platform.Mbps
	latLo := (50 + 100*plan.u[1]) * 1e-6
	bws := logspace(bwLo, bwLo*(4+4*plan.u[2]), 6)
	lats := logspace(latLo, latLo*(4+6*plan.u[3]), 4)
	speeds := []float64{2.5e9, 3e9, 3.5e9}
	type coarse struct{ bw, lat, speed, t float64 }
	var grid []coarse
	for _, scheme := range []p2psap.Scheme{p2psap.Synchronous, p2psap.Asynchronous} {
		for _, bw := range bws {
			for _, l := range lats {
				for _, sp := range speeds {
					t0 := time.Now()
					span := tr.begin("analytic.evaluate", id, root)
					res, err := capfamily.Evaluate(capPeers, capN, capRounds, scheme, bw, l, sp)
					tr.end(span, 1)
					d := time.Since(t0)
					if err != nil {
						return s, fmt.Errorf("evaluate (%g, %g, %g): %w", bw, l, sp, err)
					}
					lat(d)
					s.evals++
					if scheme == p2psap.Synchronous {
						grid = append(grid, coarse{bw, l, sp, res.PredictedSeconds})
					}
				}
			}
		}
	}
	// The two coarse points nearest a target time drawn between the
	// grid's fastest and slowest answers are the session's winners.
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for _, g := range grid {
		tmin, tmax = math.Min(tmin, g.t), math.Max(tmax, g.t)
	}
	target := tmin + (tmax-tmin)*plan.u[4]
	best := [2]int{-1, -1}
	for i, g := range grid {
		d := math.Abs(g.t - target)
		switch {
		case best[0] < 0 || d < math.Abs(grid[best[0]].t-target):
			best[1], best[0] = best[0], i
		case best[1] < 0 || d < math.Abs(grid[best[1]].t-target):
			best[1] = i
		}
	}

	fam := dperf.ScanFamily{
		Platform:  plat,
		NumParams: capfamily.NumParams,
		Build:     capfamily.Family(plat, capPeers, capN, capRounds, p2psap.Synchronous),
		Key:       "perfbench/capacity",
	}
	p := dperf.NewPredictor()
	var scans [][]float64
	for _, b := range best {
		g := grid[b]
		var pts []float64
		for _, bw := range linspace(g.bw*0.975, g.bw*1.025, 40) {
			for _, l := range linspace(g.lat*0.975, g.lat*1.025, 20) {
				for _, sp := range linspace(g.speed*0.99, g.speed*1.01, 8) {
					pts = append(pts, bw, l, sp)
				}
			}
		}
		scans = append(scans, pts)
	}
	var sparse []float64
	for i := 0; i < capSparse; i++ {
		sparse = append(sparse,
			bws[0]*math.Pow(bws[len(bws)-1]/bws[0], rng.Float64()),
			lats[0]*math.Pow(lats[len(lats)-1]/lats[0], rng.Float64()),
			2.5e9+1e9*rng.Float64())
	}
	scans = append(scans, sparse)

	for _, pts := range scans {
		n := len(pts) / capfamily.NumParams
		check := map[int]bool{}
		for len(check) < min(capSamples, n) {
			check[rng.IntN(n)] = true
		}
		t0 := time.Now()
		span := tr.begin("dperf.scan", id, root)
		st, err := p.Scan(fam, pts, func(i int, res *dperf.EngineResult) {
			if check[i] {
				s.samples = append(s.samples, capSample{pts[3*i], pts[3*i+1], pts[3*i+2], *res})
			}
		})
		tr.end(span, float64(n))
		d := time.Since(t0)
		if err != nil {
			return s, fmt.Errorf("scan of %d points: %w", n, err)
		}
		lat(d)
		s.scanTime += d
		s.points += int64(st.Points)
		s.fallbacks += int64(st.Fallbacks)
		s.regions = int64(st.Regions)
	}
	return s, nil
}

// checkSamples verifies sampled scan points against a full analytic
// evaluation of the concrete configuration, bit for bit.
func checkSamples(samples []capSample) error {
	for _, smp := range samples {
		ref, err := capfamily.Evaluate(capPeers, capN, capRounds, p2psap.Synchronous, smp.bw, smp.lat, smp.speed)
		if err != nil {
			return err
		}
		r := smp.res
		if r.PredictedSeconds != ref.PredictedSeconds || r.ScatterSeconds != ref.ScatterSeconds ||
			r.ComputeSeconds != ref.ComputeSeconds || r.GatherSeconds != ref.GatherSeconds {
			return fmt.Errorf("scan point (%g, %g, %g) = %v, full evaluation %v",
				smp.bw, smp.lat, smp.speed, r.PredictedSeconds, ref.PredictedSeconds)
		}
	}
	return nil
}

func runCapacity(e *env) (*outcome, error) {
	out := &outcome{}
	plat, err := capfamily.Star(capPeers)
	if err != nil {
		return nil, err
	}
	// Set-up: one session on a fixed input, repeated — the runtime
	// warm-up a first session pays, the same on every seed.
	for i := 0; i < 3; i++ {
		start := time.Now()
		s, err := capacitySession(newTracer(false), capPlans(rand.New(rand.NewPCG(0, 0)), 1)[0], plat, 0, func(time.Duration) {})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(start))
		if err := checkSamples(s.samples); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}

	// The run repeats one seeded pass of capSessions sessions, whole
	// passes until the time budget is spent; throughput comes from the
	// median pass, so every run measures the same work.
	plans := capPlans(e.rng(300), capSessions)
	var sessions []*capSession
	var latencies []time.Duration
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < e.seconds; pass++ {
		p0 := time.Now()
		var ops, configs int64
		for i, plan := range plans {
			id := int64(pass*len(plans) + i)
			var lat []time.Duration
			s, err := capacitySession(e.tr, plan, plat, id, func(d time.Duration) { lat = append(lat, d) })
			out.attempted += len(lat)
			if err != nil {
				out.attempted++
				out.fail("session %d: %v", id, err)
				continue
			}
			latencies = append(latencies, lat...)
			sessions = append(sessions, s)
			ops += int64(len(lat))
			configs += s.evals + s.points
		}
		out.passes = append(out.passes, passStat{time.Since(p0), ops, configs})
	}
	out.elapsed = time.Since(start)
	out.peakRSSMB = selfPeakRSSMB()

	var evals, points, fallbacks, regions int64
	var scanTime time.Duration
	for i, s := range sessions {
		if err := checkSamples(s.samples); err != nil {
			out.fail("session %d: %v", i, err)
		}
		evals += s.evals
		points += s.points
		fallbacks += s.fallbacks
		regions += s.regions
		scanTime += s.scanTime
	}
	out.latencies = latencies
	out.configs = evals + points
	if e.tr.on {
		st := e.tr.stats()
		out.layers = map[string]float64{
			"analytic.evaluate_us":         layerMedian(st, "analytic.evaluate", time.Microsecond),
			"analytic.scan_points_per_s":   float64(points) / scanTime.Seconds(),
			"analytic.scan_fallback_ratio": float64(fallbacks) / float64(points),
			"analytic.scan_regions":        float64(regions) / float64(len(sessions)),
			"bench.trace_overhead_pct":     traceOverheadPct(e.tr, out.elapsed),
		}
	}
	return out, nil
}
