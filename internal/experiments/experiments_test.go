package experiments

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"repro/dperf"
	"repro/internal/costmodel"
	"repro/internal/platform"
)

func TestReferenceScalesDown(t *testing.T) {
	// Reference time decreases with peers (Fig. 9 shape) — checked on
	// 2 vs 8 peers at O3 (cheap).
	r2, err := Reference(platform.KindCluster, 2, costmodel.O3)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Reference(platform.KindCluster, 8, costmodel.O3)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Total >= r2.Total {
		t.Fatalf("no speedup: %v @2 vs %v @8", r2.Total, r8.Total)
	}
	if r2.Total/r8.Total < 2.5 {
		t.Fatalf("speedup 2->8 peers only %.2fx", r2.Total/r8.Total)
	}
}

func TestReferenceLevelOrdering(t *testing.T) {
	var prev float64 = -1
	for _, lvl := range []costmodel.Level{costmodel.O3, costmodel.O2, costmodel.Os, costmodel.O1, costmodel.O0} {
		r, err := Reference(platform.KindCluster, 4, lvl)
		if err != nil {
			t.Fatal(err)
		}
		if r.Total <= prev {
			t.Fatalf("level %v (%.2fs) not slower than previous (%.2fs)", lvl, r.Total, prev)
		}
		prev = r.Total
	}
}

func TestFig9Calibration(t *testing.T) {
	// The O0 reference at 2 peers must land in the paper's Fig. 9
	// range: around 40 s (axis tops at 45 s).
	r, err := Reference(platform.KindCluster, 2, costmodel.O0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total < 34 || r.Total > 45 {
		t.Fatalf("O0 @2 peers = %.2f s, want ≈40 (Fig. 9 calibration)", r.Total)
	}
	// And O3 near the paper's ≈14 s (Fig. 10 axis).
	r3, err := Reference(platform.KindCluster, 2, costmodel.O3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Total < 11 || r3.Total > 17 {
		t.Fatalf("O3 @2 peers = %.2f s, want ≈14 (Fig. 10 calibration)", r3.Total)
	}
}

func TestFig10PredictionAccuracy(t *testing.T) {
	// Stage-1 validation: dPerf's prediction must be within a few
	// percent of the reference (the paper's curves nearly coincide).
	for _, p := range []int{2, 8} {
		r, err := Reference(platform.KindCluster, p, costmodel.O3)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := Predict(platform.KindCluster, p, costmodel.O3)
		if err != nil {
			t.Fatal(err)
		}
		errPct := math.Abs(pr.Predicted-r.Total) / r.Total * 100
		if errPct > 8 {
			t.Fatalf("p=%d: prediction error %.1f%% (ref %.2f, pred %.2f)", p, errPct, r.Total, pr.Predicted)
		}
	}
}

func TestFig11PlatformOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 11 sweep in -short mode")
	}
	series, err := Fig11(io.Discard, []int{2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	ref, g5k, xdsl, lan := series[0], series[1], series[2], series[3]
	for _, p := range []int{2, 4, 8} {
		// Cluster prediction close to reference.
		if e := math.Abs(g5k.Points[p]-ref.Points[p]) / ref.Points[p]; e > 0.08 {
			t.Errorf("p=%d: cluster prediction off by %.1f%%", p, e*100)
		}
		// xDSL is worst, LAN in between (Fig. 11 ordering).
		if !(xdsl.Points[p] > lan.Points[p] && lan.Points[p] > g5k.Points[p]) {
			t.Errorf("p=%d: ordering broken: xdsl=%v lan=%v g5k=%v",
				p, xdsl.Points[p], lan.Points[p], g5k.Points[p])
		}
	}
	// xDSL communication grows with the peer count ("the necessary
	// time to exchange data tends to increase with the number of
	// peers"). The one-time scatter/gather term shrinks as 1/p, so
	// measure the iteration-phase communication: the compute phase of
	// the prediction minus the pure computation in the traces.
	a, err := dperf.AnalyzeSource(dperf.ObstacleSource, []string{"N"})
	if err != nil {
		t.Fatal(err)
	}
	a = a.WithWorkload(dperf.DefaultObstacleWorkload())
	comm := func(p int) float64 {
		ts, err := a.Traces(dperf.WithRanks(p), dperf.WithLevel(costmodel.O0))
		if err != nil {
			t.Fatal(err)
		}
		traces, err := ts.Flat()
		if err != nil {
			t.Fatal(err)
		}
		pred, err := ts.Predict(dperf.WithPlatform(platform.KindDaisy))
		if err != nil {
			t.Fatal(err)
		}
		pure := 0.0
		for _, tr := range traces {
			if c := tr.TotalComputeNS() / 1e9; c > pure {
				pure = c
			}
		}
		return pred.Compute - pure
	}
	c2, c4, c8 := comm(2), comm(4), comm(8)
	if !(c8 > c4 && c4 > c2) {
		t.Errorf("xDSL iteration comm not growing: %v %v %v", c2, c4, c8)
	}
}

func TestTableIRelationsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("Table I sweep in -short mode")
	}
	series, err := Fig11(io.Discard, []int{2, 4, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := TableI(io.Discard, series)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table I has %d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if !r.Holds {
			t.Errorf("Table I row %q does not hold: p2p=%.2fs grid=%.2fs", r.PaperClaims, r.P2PTime, r.GridTime)
		}
	}
}

func TestFig9SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 9 sweep in -short mode")
	}
	var buf bytes.Buffer
	series, err := Fig9(&buf, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("series = %d, want 5 levels", len(series))
	}
	out := buf.String()
	if !strings.Contains(out, "Fig. 9") || !strings.Contains(out, "level-O3") {
		t.Fatalf("output malformed:\n%s", out)
	}
	// Every level: halving time from 2 to 4 peers (compute bound).
	for _, s := range series {
		ratio := s.Points[2] / s.Points[4]
		if ratio < 1.7 || ratio > 2.2 {
			t.Errorf("%s: 2->4 peer ratio %v, want ≈2", s.Label, ratio)
		}
	}
}

func TestSeriesSortedAndTable(t *testing.T) {
	s := NewSeries("x")
	s.Points[8] = 3
	s.Points[2] = 1
	pts := s.Sorted()
	if len(pts) != 2 || pts[0].Peers != 2 || pts[1].Peers != 8 {
		t.Fatalf("sorted = %+v", pts)
	}
	var buf bytes.Buffer
	PrintTable(&buf, "t", []*Series{s})
	if !strings.Contains(buf.String(), "# t") {
		t.Fatal("table header missing")
	}
}

func TestWorkloadMatchesLevel(t *testing.T) {
	w := Workload(costmodel.O2)
	if w.Level != costmodel.O2 {
		t.Fatal("level not threaded through")
	}
	if w.Numerics {
		t.Fatal("experiment workload must use modeled compute")
	}
}
