package dperf

import (
	"fmt"
	"sync"

	"repro/internal/analytic"
)

// The symbolic scan surface, re-exported from the analytic tier: a
// ScanFamily describes a configuration with free platform parameters
// (bandwidth, latency, node speed — anything lifted to a SymVal), and
// Predictor.Scan evaluates it over a parameter grid through guarded
// evaluation tapes instead of running the full analytic kernel per
// point. See internal/analytic/tape.go for the tape model.
type (
	// Symbolic builds symbolic expressions inside a ScanFamily's Build
	// function.
	Symbolic = analytic.Symbolic
	// SymVal is an opaque symbolic float: a free parameter, a
	// constant, or an expression over them.
	SymVal = analytic.SymVal
	// SymOp mirrors a trace op with symbolic duration/byte counts.
	SymOp = analytic.SymOp
	// SymSpec is the symbolic analytic spec a ScanFamily builds.
	SymSpec = analytic.SymSpec
	// Tape is one compiled guard region of a family.
	Tape = analytic.Tape
)

// ScanFamily is one symbolic configuration family: a platform whose
// selected links take symbolic bandwidth/latency, and a builder that
// constructs the symbolic spec. The same family evaluated at a
// parameter point must be bit-identical to a concrete analytic
// evaluation of that configuration — that is the tape contract Scan
// preserves at every grid point.
type ScanFamily struct {
	// Platform supplies topology, routing and every non-overridden
	// link. Routing stays concrete (see SymSpec), so the family's
	// routes must not depend on the symbolic latencies.
	Platform *Platform
	// NumParams fixes the free-parameter count; Build sees parameters
	// 0..NumParams-1 and Scan consumes that many floats per point.
	NumParams int
	// Build constructs the symbolic spec. It is called once per
	// recorded region (not per point), always single-threaded.
	Build func(*Symbolic) (*SymSpec, error)
	// Key, when non-empty, caches the family's tapes on the Predictor
	// so later and concurrent scans of the same family share regions.
	// The caller owns the namespace: a Key must identify the family
	// uniquely (two different families sharing a Key would serve each
	// other's formulas). An empty Key keeps the tape cache private to
	// the Scan call.
	Key string
}

// ScanStats reports how a scan was served. All counts are
// deterministic functions of the family and the grid — nothing here
// is timing-dependent.
type ScanStats struct {
	// Points is the number of grid points evaluated.
	Points int
	// Replayed counts points served by replaying a cached tape.
	Replayed int
	// Fallbacks counts guard fallbacks: points no cached tape
	// accepted, served by a fresh full (recording) evaluation.
	Fallbacks int
	// Regions is the size of the family's tape cache after the scan —
	// with a private cache, exactly the number of control-flow regions
	// the grid touched.
	Regions int
}

// tapeSet is a family's shared tape cache: an append-only list of
// compiled regions. Tapes are immutable and safe for concurrent
// replay; the lock only orders appends and snapshots.
type tapeSet struct {
	mu    sync.Mutex
	tapes []*Tape
}

// fetch returns copies of the tapes appended since seen, plus the new
// watermark.
func (s *tapeSet) fetch(seen int) ([]*Tape, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seen >= len(s.tapes) {
		return nil, seen
	}
	out := make([]*Tape, len(s.tapes)-seen)
	copy(out, s.tapes[seen:])
	return out, len(s.tapes)
}

func (s *tapeSet) add(t *Tape) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tapes = append(s.tapes, t)
}

func (s *tapeSet) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tapes)
}

// tapeSetFor resolves the family's cache: the keyed shared set, or a
// private one for unkeyed families.
func (p *Predictor) tapeSetFor(f *ScanFamily) *tapeSet {
	if f.Key == "" {
		return &tapeSet{}
	}
	key := fmt.Sprintf("%p|%s", f.Platform, f.Key)
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.tapes[key]
	if !ok {
		s = &tapeSet{}
		p.tapes[key] = s
	}
	return s
}

// Scan evaluates the family at every grid point and streams the
// results in point order. points holds NumParams floats per point,
// row-major; visit receives each point's index and result (res is
// reused across calls — copy what you keep).
//
// The scan maintains a most-recently-used list of guarded tapes
// (compiled regions of the family's parameter space). Runs of points
// inside one region replay batched through one tape — a branch-free
// array walk — and the lanes it rejects try the other tapes one point
// at a time, MRU first. A point every cached tape rejects falls back
// to one full recording evaluation, which both answers the point and
// contributes the new region's tape. Replayed or fallback, every
// visited result is bit-identical to a full analytic evaluation of
// the family at that point.
//
// Scan is safe for concurrent use with Predict and other Scan calls
// on a shared Predictor; keyed families share discovered regions
// across those calls.
func (p *Predictor) Scan(f ScanFamily, points []float64, visit func(i int, res *EngineResult)) (*ScanStats, error) {
	if f.Platform == nil {
		return nil, fmt.Errorf("dperf: scan family has no platform")
	}
	if f.Build == nil {
		return nil, fmt.Errorf("dperf: scan family has no build function")
	}
	np := f.NumParams
	if np <= 0 {
		return nil, fmt.Errorf("dperf: scan family has %d parameters", np)
	}
	if len(points)%np != 0 {
		return nil, fmt.Errorf("dperf: scan grid of %d floats is not a multiple of %d parameters", len(points), np)
	}
	n := len(points) / np
	set := p.tapeSetFor(&f)
	local, seen := set.fetch(0) // MRU-ordered working list
	stats := &ScanStats{Points: n}

	var er EngineResult
	emit := func(i int, r *analytic.Result) {
		er = EngineResult{
			PredictedSeconds:    r.PredictedSeconds,
			ScatterSeconds:      r.ScatterSeconds,
			ComputeSeconds:      r.ComputeSeconds,
			GatherSeconds:       r.GatherSeconds,
			RoundsSimulated:     r.RoundsSimulated,
			RoundsFastForwarded: r.RoundsFastForwarded,
		}
		if visit != nil {
			visit(i, &er)
		}
	}

	// scalar serves one point: cached tapes in MRU order, then tapes
	// concurrent scans discovered meanwhile, then the full fallback.
	// rejected, if not nil, is a tape known to reject the point; it is
	// not tried again.
	scalar := func(i int, rejected *Tape) error {
		pt := points[i*np : i*np+np]
		var r analytic.Result
		for k, tp := range local {
			if tp == rejected {
				continue
			}
			if tp.Replay(pt, &r) {
				if k != 0 {
					copy(local[1:k+1], local[:k])
					local[0] = tp
				}
				stats.Replayed++
				emit(i, &r)
				return nil
			}
		}
		var fresh []*Tape
		fresh, seen = set.fetch(seen)
		for k, tp := range fresh {
			if tp.Replay(pt, &r) {
				local = append([]*Tape{tp}, local...)
				local = append(local, fresh[k+1:]...)
				stats.Replayed++
				emit(i, &r)
				return nil
			}
			local = append(local, tp)
		}
		tp, err := analytic.CompileTape(f.Platform, pt, f.Build)
		if err != nil {
			return fmt.Errorf("dperf: scan fallback at point %d: %w", i, err)
		}
		if !tp.Replay(pt, &r) {
			return fmt.Errorf("dperf: freshly recorded tape rejects its own record point %d", i)
		}
		set.add(tp)
		seen++ // our own append; don't re-fetch it
		local = append([]*Tape{tp}, local...)
		stats.Fallbacks++
		emit(i, &r)
		return nil
	}

	var bres [analytic.BatchLanes]analytic.Result
	var bok [analytic.BatchLanes]bool
	var batch *Tape // the tape full batches replay through
	i := 0
	for i < n {
		if len(local) == 0 || n-i < analytic.BatchLanes {
			if err := scalar(i, nil); err != nil {
				return nil, err
			}
			i++
			continue
		}
		if batch == nil {
			batch = local[0]
		}
		// Lanes the batch tape rejects take the scalar path
		// individually.
		batch.ReplayBatch(points[i*np:(i+analytic.BatchLanes)*np], &bres, &bok)
		kept := 0
		for l := 0; l < analytic.BatchLanes; l++ {
			if bok[l] {
				stats.Replayed++
				emit(i+l, &bres[l])
				kept++
				continue
			}
			if err := scalar(i+l, batch); err != nil {
				return nil, err
			}
		}
		// Keep a tape that answered most of its batch: a grid's
		// regions need not line up with its lanes, and the MRU head
		// is only whichever tape answered the last rejected lane.
		if 2*kept < analytic.BatchLanes {
			batch = local[0]
		}
		i += analytic.BatchLanes
	}
	stats.Regions = set.size()
	return stats, nil
}

// Scan evaluates a symbolic family over a parameter grid through a
// throwaway Predictor. Use a shared Predictor's Scan method to keep
// discovered tape regions across calls.
func Scan(f ScanFamily, points []float64, visit func(i int, res *EngineResult)) (*ScanStats, error) {
	return NewPredictor().Scan(f, points, visit)
}
