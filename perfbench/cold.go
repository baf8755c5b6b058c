package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/dperf"
)

// The cold workload: one caller, one op at a time, each op a full cold
// prediction from source — the paper's "benchmark once" path. The mini-C
// interpreter does almost all the work here (block bench and trace
// generation), so this is the workload where interpreter work shows.
//
// Inputs: the paper obstacle (N=1200, BenchN=32, 15 sweeps) with rounds
// from {30, 60, 120}, ranks from {4, 8, 16}, level from O0–O3 and the
// DES platform kind drawn per op. Ops come in blocks of three: each
// block takes every round count once and every rank count once, rows of
// a seeded Latin square, so two blocks never repeat a (rounds, ranks)
// pair and every run does the same amount of interpretation. The run
// measures whole blocks, at least coldMinBlocks of them, until the
// time budget is spent: a partial block would make the op mix, and so
// the median, depend on where the clock stopped. Two blocks take about
// 45 s on a 2-core host, so a run of up to that many seconds is exactly
// two blocks.
var (
	coldRounds = []int64{30, 60, 120}
	coldRanks  = []int{4, 8, 16}
	coldLevels = []dperf.Level{dperf.O0, dperf.O1, dperf.O2, dperf.O3}
	coldKinds  = []dperf.Kind{dperf.KindCluster, dperf.KindDaisy, dperf.KindLAN}
)

const coldMinBlocks = 2

type coldOp struct {
	rounds int64
	ranks  int
	level  dperf.Level
	kind   dperf.Kind
}

// coldPlan draws the blocks of a Graeco-Latin square (rows, columns
// and both symbol sets permuted): within a block every round count,
// rank count and platform kind appears once, and across the square every
// (rounds, ranks) and every (rounds, kind) pair appears once. Levels are
// drawn per op. Each block is shuffled.
func coldPlan(e *env, square int) [][]coldOp {
	rng := e.rng(100 + uint64(square))
	rows, cols, ranks, kinds := rng.Perm(3), rng.Perm(3), rng.Perm(3), rng.Perm(3)
	blocks := make([][]coldOp, 3)
	for b := range blocks {
		for j := 0; j < 3; j++ {
			blocks[b] = append(blocks[b], coldOp{
				rounds: coldRounds[j],
				ranks:  coldRanks[ranks[(rows[b]+cols[j])%3]],
				level:  coldLevels[rng.IntN(len(coldLevels))],
				kind:   coldKinds[kinds[(2*rows[b]+cols[j])%3]],
			})
		}
		rng.Shuffle(3, func(i, j int) { blocks[b][i], blocks[b][j] = blocks[b][j], blocks[b][i] })
	}
	return blocks
}

// coldResult is what one op produced, kept for the checks that run
// after the op's clock stops.
type coldResult struct {
	set, decoded *dperf.TraceSet
	des, auto    *dperf.Prediction
	records      int64
	bytes        int
	latency      time.Duration
}

// coldPass runs one cold prediction. Spans (traced runs only) wrap each
// call into a layer under the op's root span.
func coldPass(tr *tracer, op coldOp, id int64, root int, w dperf.ObstacleWorkload) (*coldResult, error) {
	var (
		a   *dperf.Analysis
		r   coldResult
		err error
		buf bytes.Buffer
	)
	if err := tr.do("minic.analyze", id, root, func() error {
		a, err = dperf.AnalyzeSource(w.Source(), w.ScaleParams())
		return err
	}); err != nil {
		return nil, err
	}
	a = a.WithWorkload(w)
	if err := tr.do("interp.bench", id, root, func() error {
		_, err := a.Bench(dperf.WithLevel(op.level))
		return err
	}); err != nil {
		return nil, err
	}
	sp := tr.begin("interp.traces", id, root)
	r.set, err = a.Traces(dperf.WithLevel(op.level), dperf.WithRanks(op.ranks))
	if err != nil {
		return nil, err
	}
	for _, f := range r.set.Folded() {
		r.records += f.NumRecords()
	}
	tr.end(sp, float64(r.records))
	if err := tr.do("trace.factor", id, root, func() error {
		_, err := r.set.Template()
		return err
	}); err != nil {
		return nil, err
	}
	sp = tr.begin("trace.encode", id, root)
	if err := r.set.WriteBinary(&buf); err != nil {
		return nil, err
	}
	r.bytes = buf.Len()
	tr.end(sp, float64(r.bytes))
	if err := tr.do("trace.decode", id, root, func() error {
		r.decoded, err = dperf.ReadTraceSetData("cold", buf.Bytes())
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do("replay.des", id, root, func() error {
		r.des, err = r.decoded.Predict(dperf.WithFastForward(true), dperf.WithPlatform(op.kind))
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.do("analytic.auto", id, root, func() error {
		r.auto, err = r.decoded.Predict(dperf.WithFastForward(true), dperf.WithPlatform(op.kind),
			dperf.WithPredictMode(dperf.PredictAuto))
		return err
	}); err != nil {
		return nil, err
	}
	return &r, nil
}

// checkCold verifies one op's outputs: the decoded set renders the same
// JSON as the in-memory one, and an analytic auto answer equals the
// fast-forward DES prediction bit for bit.
func checkCold(r *coldResult) error {
	var a, b bytes.Buffer
	if err := r.set.WriteJSON(&a); err != nil {
		return err
	}
	if err := r.decoded.WriteJSON(&b); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("decoded trace set JSON differs from the generated set (%d vs %d bytes)", b.Len(), a.Len())
	}
	if r.auto.Tier == dperf.TierAnalytic {
		d, x := r.des, r.auto
		if d.Predicted != x.Predicted || d.Scatter != x.Scatter || d.Compute != x.Compute || d.Gather != x.Gather {
			return fmt.Errorf("analytic answer %v differs from fast-forward DES %v", x.Predicted, d.Predicted)
		}
	}
	if r.des.Predicted <= 0 {
		return fmt.Errorf("non-positive prediction %v", r.des.Predicted)
	}
	return nil
}

func runCold(e *env) (*outcome, error) {
	out := &outcome{}
	// Set-up: the process warm-up a first prediction pays, a reduced
	// obstacle through the whole pipeline, repeated; the same fixed
	// input on every seed.
	for i := 0; i < 3; i++ {
		start := time.Now()
		r, err := coldPass(newTracer(false), coldOp{rounds: 2, ranks: 4, level: dperf.O2, kind: dperf.KindCluster}, 0, -1,
			dperf.ObstacleWorkload{N: 1200, Rounds: 2, Sweeps: 15, BenchN: 32})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(start))
		if err := checkCold(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}

	var (
		results            []*coldResult
		nops               int64
		recs, ffR, simR    int64
		autoN, autoDecline int
	)
	start := time.Now()
	for square, blocks := 0, 0; ; square++ {
		plan := coldPlan(e, square)
		done := false
		for _, block := range plan {
			if blocks >= coldMinBlocks && time.Since(start) >= e.seconds {
				done = true
				break
			}
			for _, op := range block {
				id := nops
				nops++
				root := e.tr.begin("cold.op", id, -1)
				t0 := time.Now()
				w := dperf.ObstacleWorkload{N: 1200, Rounds: op.rounds, Sweeps: 15, BenchN: 32}
				r, err := coldPass(e.tr, op, id, root, w)
				lat := time.Since(t0)
				e.tr.end(root, 0)
				out.attempted++
				if err != nil {
					out.fail("op %d %+v: %v", id, op, err)
					continue
				}
				r.latency = lat
				results = append(results, r)
				out.notes = append(out.notes, fmt.Sprintf("cold op %d: %d rounds, %d ranks, %v, %s: %.0f ms",
					id, op.rounds, op.ranks, op.level, op.kind, ms(lat)))
			}
			blocks++
		}
		if done {
			break
		}
	}
	out.elapsed = time.Since(start)
	out.peakRSSMB = selfPeakRSSMB()

	for i, r := range results {
		if err := checkCold(r); err != nil {
			out.fail("op %d: %v", i, err)
			continue
		}
		out.latencies = append(out.latencies, r.latency)
		out.configs += 2 // the DES and the auto prediction
		recs += r.records
		simR += r.des.RoundsSimulated
		ffR += r.des.RoundsFastForwarded
		autoN++
		if r.auto.Tier != dperf.TierAnalytic {
			autoDecline++
		}
	}
	if e.tr.on {
		st := e.tr.stats()
		out.layers = coldLayers(st, recs, simR, ffR, autoN, autoDecline)
		out.layers["bench.trace_overhead_pct"] = traceOverheadPct(e.tr, out.elapsed)
	}
	return out, nil
}

func coldLayers(st map[string]*layerStat, recs, simR, ffR int64, autoN, autoDecline int) map[string]float64 {
	l := map[string]float64{
		"minic.analyze_ms":     layerMedian(st, "minic.analyze", time.Millisecond),
		"interp.bench_ms":      layerMedian(st, "interp.bench", time.Millisecond),
		"interp.traces_ms":     layerMedian(st, "interp.traces", time.Millisecond),
		"trace.factor_ms":      layerMedian(st, "trace.factor", time.Millisecond),
		"trace.encode_ms":      layerMedian(st, "trace.encode", time.Millisecond),
		"trace.decode_ms":      layerMedian(st, "trace.decode", time.Millisecond),
		"replay.des_ms":        layerMedian(st, "replay.des", time.Millisecond),
		"analytic.certify_ms":  layerMedian(st, "analytic.auto", time.Millisecond),
		"trace.template_bytes": 0,
	}
	if ls := st["trace.encode"]; ls != nil && len(ls.durs) > 0 {
		l["trace.template_bytes"] = ls.n / float64(len(ls.durs))
	}
	if ls := st["interp.traces"]; ls != nil && ls.total > 0 {
		l["interp.records_per_s"] = float64(recs) / ls.total.Seconds()
	}
	if op := st["cold.op"]; op != nil && op.total > 0 {
		var interp time.Duration
		for _, n := range []string{"interp.bench", "interp.traces"} {
			if ls := st[n]; ls != nil {
				interp += ls.self
			}
		}
		l["interp.share"] = float64(interp) / float64(op.total)
	}
	if simR+ffR > 0 {
		l["replay.ff_round_ratio"] = float64(ffR) / float64(simR+ffR)
	}
	if autoN > 0 {
		l["analytic.decline_ratio"] = float64(autoDecline) / float64(autoN)
	}
	return l
}
