package analytic

import (
	"sync"
	"testing"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// steadySrc builds a line-topology iterative fixture: every rank runs
// a managed Repeat of compute + ghost exchange with its line
// neighbours + convergence test, with slightly rank-skewed compute so
// the steady state is not trivially symmetric.
func steadySrc(ranks, count int) trace.FoldedSource {
	fs := make([]*trace.Folded, ranks)
	for r := 0; r < ranks; r++ {
		body := []trace.Op{
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 2e6 + float64(r)*1.7e4}},
		}
		if r > 0 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: r - 1, Bytes: 4096}})
		}
		if r < ranks-1 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: r + 1, Bytes: 4096}})
		}
		if r > 0 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: r - 1, Bytes: 4096}})
		}
		if r < ranks-1 {
			body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: r + 1, Bytes: 4096}})
		}
		body = append(body, trace.Op{Count: 1, Rec: trace.Record{Kind: trace.KindConv}})
		fs[r] = &trace.Folded{Rank: r, Of: ranks, Ops: []trace.Op{
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1.5e6}},
			{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
			{Count: count, Body: body},
			{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1e3}},
		}}
	}
	return trace.FoldedSource(fs)
}

// perturbedSrc splits the loop around one heterogeneous round, so the
// controller joins two managed Repeats with a literal round between —
// the signature-chain-clearing paths get exercised.
func perturbedSrc(ranks int) trace.FoldedSource {
	fs := make([]*trace.Folded, ranks)
	for r := 0; r < ranks; r++ {
		round := func(ns float64) []trace.Op {
			peer := r ^ 1 // pairwise exchange; requires even ranks
			return []trace.Op{
				{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: ns}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindSend, Peer: peer, Bytes: 2048}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindRecv, Peer: peer, Bytes: 2048}},
				{Count: 1, Rec: trace.Record{Kind: trace.KindConv}},
			}
		}
		var ops []trace.Op
		ops = append(ops, trace.Op{Count: 10, Body: round(2e6)})
		ops = append(ops, round(3.3e6)...)
		ops = append(ops, trace.Op{Count: 10, Body: round(2e6)})
		fs[r] = &trace.Folded{Rank: r, Of: ranks, Ops: ops}
	}
	return fs
}

func specFor(t testing.TB, plat *platform.Platform, ranks int, scheme p2psap.Scheme, scatter, gather float64, src trace.Source) Spec {
	t.Helper()
	hosts := plat.Hosts()
	if len(hosts) < ranks {
		t.Fatalf("platform has %d hosts, need %d", len(hosts), ranks)
	}
	return Spec{
		Platform:     plat,
		Hosts:        hosts[:ranks],
		Submitter:    plat.Frontend,
		Scheme:       scheme,
		ScatterBytes: scatter,
		GatherBytes:  gather,
		Source:       src,
	}
}

// runBoth evaluates the same spec through the analytic tier and
// through replay with fast-forward on, and requires every timing field
// and the round accounting to match bit for bit.
func runBoth(t *testing.T, spec Spec) *Result {
	t.Helper()
	ares, err := Evaluate(spec)
	if err != nil {
		t.Fatalf("analytic: %v", err)
	}
	rres, err := replay.RunSource(replay.Spec{
		Platform:     spec.Platform,
		Hosts:        spec.Hosts,
		Submitter:    spec.Submitter,
		Scheme:       spec.Scheme,
		ScatterBytes: spec.ScatterBytes,
		GatherBytes:  spec.GatherBytes,
		FastForward:  replay.FFOn,
	}, spec.Source)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if ares.PredictedSeconds != rres.PredictedSeconds ||
		ares.ScatterSeconds != rres.ScatterSeconds ||
		ares.ComputeSeconds != rres.ComputeSeconds ||
		ares.GatherSeconds != rres.GatherSeconds {
		t.Fatalf("analytic diverged from fast-forward replay:\nanalytic %+v\nreplay   %+v", ares, rres)
	}
	if ares.RoundsSimulated != rres.FF.RoundsSimulated ||
		ares.RoundsFastForwarded != rres.FF.RoundsFastForwarded ||
		ares.Jumps != rres.FF.Jumps {
		t.Fatalf("round accounting diverged:\nanalytic %+v\nreplay   %+v", ares, rres.FF)
	}
	return ares
}

// TestAnalyticBitIdenticalCluster: the arithmetic port must reproduce
// the DES fast-forward replay bit for bit across rank counts, schemes
// and deployment phases.
func TestAnalyticBitIdenticalCluster(t *testing.T) {
	for _, ranks := range []int{2, 4, 8} {
		plat, err := platform.Cluster(ranks)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []p2psap.Scheme{p2psap.Synchronous, p2psap.Asynchronous} {
			spec := specFor(t, plat, ranks, scheme, 8192, 4096, steadySrc(ranks, 40))
			res := runBoth(t, spec)
			if res.Jumps == 0 || res.RoundsFastForwarded == 0 {
				t.Fatalf("ranks=%d scheme=%v: steady fixture did not fast-forward: %+v", ranks, scheme, res)
			}
			if got := res.RoundsSimulated + res.RoundsFastForwarded; got != 40 {
				t.Fatalf("ranks=%d: rounds accounted %d, want 40", ranks, got)
			}
		}
	}
}

// TestAnalyticBitIdenticalLAN: same differential on the LAN platform
// profile (different latencies select a different P2PSAP profile).
func TestAnalyticBitIdenticalLAN(t *testing.T) {
	for _, ranks := range []int{2, 6} {
		plat, err := platform.LAN(ranks)
		if err != nil {
			t.Fatal(err)
		}
		spec := specFor(t, plat, ranks, p2psap.Synchronous, 4096, 4096, steadySrc(ranks, 24))
		runBoth(t, spec)
	}
}

// TestAnalyticBitIdenticalPerturbed: heterogeneous rounds break the
// signature chain; the analytic engine must fall back exactly like the
// DES engine.
func TestAnalyticBitIdenticalPerturbed(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, plat, 4, p2psap.Synchronous, 2048, 2048, perturbedSrc(4))
	runBoth(t, spec)
}

// TestAnalyticNoDeployment: zero scatter/gather bytes skip both
// phases (the submitter signals at t=0, before the watchdog's first
// activation — the pending-signal path).
func TestAnalyticNoDeployment(t *testing.T) {
	plat, err := platform.Cluster(2)
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, plat, 2, p2psap.Synchronous, 0, 0, steadySrc(2, 12))
	res := runBoth(t, spec)
	if res.ScatterSeconds != 0 || res.GatherSeconds != 0 {
		t.Fatalf("deployment-free run has nonzero phase times: %+v", res)
	}
}

// TestCertify: a steady-state evaluation certifies as such, and the
// certificate's result is the evaluation's.
func TestCertify(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, plat, 4, p2psap.Synchronous, 8192, 4096, steadySrc(4, 40))
	cert, err := Certify(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.SteadyState {
		t.Fatalf("steady fixture did not certify: %+v", cert)
	}
	res, err := Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Result() != *res {
		t.Fatalf("certificate result differs from evaluation:\ncert %+v\neval %+v", cert.Res, *res)
	}
}

// TestModelReuse: one shared model serves many evaluations, from
// several goroutines at once starting with a cold route cache, with
// results identical to a throwaway model's.
func TestModelReuse(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(plat)
	if err != nil {
		t.Fatal(err)
	}
	spec := specFor(t, plat, 4, p2psap.Synchronous, 8192, 4096, steadySrc(4, 24))
	results := make([]*Result, 4)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = m.Evaluate(spec)
		}()
	}
	wg.Wait()
	solo, err := Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for g, res := range results {
		if errs[g] != nil {
			t.Fatalf("shared model, goroutine %d: %v", g, errs[g])
		}
		if *res != *solo {
			t.Fatalf("shared model diverged from throwaway model on goroutine %d: %+v vs %+v", g, res, solo)
		}
	}
	again, err := m.Evaluate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if *again != *solo {
		t.Fatalf("warm shared model diverged: %+v vs %+v", again, solo)
	}
}

// TestEligible: op structure and a manageable top-level Repeat on
// every rank are required.
func TestEligible(t *testing.T) {
	if err := Eligible(steadySrc(4, 24)); err != nil {
		t.Fatalf("steady source rejected: %v", err)
	}
	if err := Eligible(nil); err == nil {
		t.Fatal("nil source accepted")
	}
	// Flat slice sources carry no op structure.
	flat := trace.SliceSource([]*trace.Trace{
		{Rank: 0, Of: 1, Records: []trace.Record{{Kind: trace.KindCompute, NS: 1e6}}},
	})
	if err := Eligible(flat); err == nil {
		t.Fatal("non-op source accepted")
	}
	// A rank without a manageable Repeat is ineligible.
	noLoop := trace.FoldedSource([]*trace.Folded{
		{Rank: 0, Of: 1, Ops: []trace.Op{{Count: 1, Rec: trace.Record{Kind: trace.KindCompute, NS: 1e6}}}},
	})
	if err := Eligible(noLoop); err == nil {
		t.Fatal("loopless source accepted")
	}
}

// TestSpecValidation: the analytic tier's extra preconditions.
func TestSpecValidation(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	base := specFor(t, plat, 2, p2psap.Synchronous, 0, 0, steadySrc(2, 12))

	dup := base
	dup.Hosts = []string{base.Hosts[0], base.Hosts[0]}
	if _, err := Evaluate(dup); err == nil {
		t.Fatal("duplicate hosts accepted")
	}

	badSub := base
	badSub.Submitter = "no-such-host"
	if _, err := Evaluate(badSub); err == nil {
		t.Fatal("unknown submitter accepted")
	}

	flat := base
	flat.Source = trace.SliceSource([]*trace.Trace{
		{Rank: 0, Of: 2, Records: []trace.Record{{Kind: trace.KindCompute, NS: 1e6}}},
		{Rank: 1, Of: 2, Records: []trace.Record{{Kind: trace.KindCompute, NS: 1e6}}},
	})
	if _, err := Evaluate(flat); err == nil {
		t.Fatal("non-op source accepted")
	}

	other, err := platform.Cluster(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evaluate(base); err == nil {
		t.Fatal("foreign platform accepted")
	}
}

// TestGenericEngineValidation feeds hostile specs through one shared
// Model: the engine checks hosts, submitter and deployment bytes when
// it sets up an evaluation, and a rejected spec must leave the model
// usable.
func TestGenericEngineValidation(t *testing.T) {
	plat, err := platform.Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(plat)
	if err != nil {
		t.Fatal(err)
	}
	base := specFor(t, plat, 2, p2psap.Synchronous, 0, 0, steadySrc(2, 12))

	dup := base
	dup.Hosts = []string{base.Hosts[0], base.Hosts[0]}
	if _, err := m.Evaluate(dup); err == nil {
		t.Fatal("duplicate hosts accepted")
	}

	badSub := base
	badSub.Submitter = "no-such-host"
	if _, err := m.Evaluate(badSub); err == nil {
		t.Fatal("unknown submitter accepted")
	}

	neg := base
	neg.ScatterBytes = -1
	if _, err := m.Evaluate(neg); err == nil {
		t.Fatal("negative scatter bytes accepted")
	}
	if _, err := m.Evaluate(base); err != nil {
		t.Fatalf("valid spec rejected after hostile ones: %v", err)
	}
}

// benchSpec is BenchmarkEvaluate's configuration: 16 hosts, 8 ranks,
// 40 rounds, with scatter and gather.
func benchSpec(t testing.TB) (*Model, Spec) {
	t.Helper()
	plat, err := platform.Cluster(16)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(plat)
	if err != nil {
		t.Fatal(err)
	}
	return m, specFor(t, plat, 8, p2psap.Synchronous, 1e6, 1e6, steadySrc(8, 40))
}

// maxEvaluateAllocs bounds the allocations of one BenchmarkEvaluate
// evaluation. An allocation count is host-independent, unlike a
// wall-clock gate, and allocation is a large share of the evaluator's
// cost.
const maxEvaluateAllocs = 196

// TestEvaluateAllocs holds Model.Evaluate to maxEvaluateAllocs on
// BenchmarkEvaluate's spec.
func TestEvaluateAllocs(t *testing.T) {
	m, spec := benchSpec(t)
	if _, err := m.Evaluate(spec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.Evaluate(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxEvaluateAllocs {
		t.Fatalf("Model.Evaluate: %.0f allocations per evaluation, want <= %d", allocs, maxEvaluateAllocs)
	}
}

// BenchmarkEvaluate: cold per-point cost of the analytic tier (model
// reuse, no certificate cache) at paper scale — 8 ranks, 40 rounds.
func BenchmarkEvaluate(b *testing.B) {
	m, spec := benchSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
