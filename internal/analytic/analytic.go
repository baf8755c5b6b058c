// Package analytic is dPerf's closed-form prediction tier: it costs a
// steady-state workload without running the discrete-event simulator
// on the prediction path.
//
// The DES replay (internal/replay over internal/des) is exact but pays
// a goroutine park/resume handoff per kernel event — with fast-forward
// enabled a paper-scale obstacle replay still crosses thousands of
// events before the steady-state detector can jump. This package
// re-derives the identical prediction arithmetically: the des kernel,
// the netsim fluid network, the p2pdc scatter/compute/gather protocol
// and the p2psap channel model are re-expressed as resumable state
// machines driven by one (time, seq)-ordered event loop in a single
// goroutine (gengine.go, gexec.go). The loop is written once, generic
// over its float type: Model.Evaluate runs it at float64 (f64.go), and
// CompileTape runs it at symbolic values that record a guarded tape
// (tape.go). Every scheduling call, float operation and tie-break
// mirrors the DES stack operation for operation, so the evaluation is
// bit-identical to replay.RunSource with FastForward=FFOn — the
// differential tests here and in dperf assert exactly that — while
// certification runs in a fraction of the replay's wall time and a
// cached Certificate serves repeated predictions in nanoseconds.
//
// Why bit identity is attainable at all: the des event queue is a
// strict total order ((time, seq) with unique sequence numbers), so
// pop order is independent of queue shape; process interleaving is
// fully determined by the scheduling calls each primitive makes; and
// the replayed applications never exchange data values, only timing —
// mailbox payloads can be dropped and every queue becomes a counter.
// What remains is pure float64 arithmetic, which this package performs
// in the same order with the same operands.
package analytic

import (
	"fmt"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Spec configures one analytic evaluation. The fields mirror
// replay.Spec: a prediction is comparable across tiers only when both
// were produced from the same spec.
type Spec struct {
	// Platform supplies routes and link capacities. When evaluating
	// through a shared Model, it must be nil or the model's platform.
	Platform *platform.Platform
	// Hosts maps rank -> host name. Hosts must be pairwise distinct:
	// the analytic mailbox model indexes peer boxes by rank pair, which
	// coincides with the DES per-(host, tag) mailboxes only when no two
	// ranks share a host.
	Hosts []string
	// Submitter is the scatter/gather endpoint (platform frontend).
	Submitter string
	// Scheme is carried for spec identity with the DES tier. The traced
	// record kinds behave identically under both schemes (sends are
	// eager, receives block), so the scheme does not alter the
	// arithmetic.
	Scheme p2psap.Scheme
	// ScatterBytes/GatherBytes model the P2PDC deployment phases.
	ScatterBytes float64
	GatherBytes  float64
	// Source must be op-structured (trace.OpsSource): the steady-state
	// engine needs Repeat boundaries, exactly like the DES fast-forward
	// executor.
	Source trace.Source
}

// Result is the analytic prediction, field-compatible with the replay
// result plus the steady-state round accounting.
type Result struct {
	// PredictedSeconds is t_predicted: submission to last gather.
	PredictedSeconds float64
	ScatterSeconds   float64
	ComputeSeconds   float64
	GatherSeconds    float64
	// RoundsSimulated / RoundsFastForwarded / Jumps mirror
	// replay.FFStats for the managed loops.
	RoundsSimulated     int64
	RoundsFastForwarded int64
	Jumps               int64
}

// Certificate is a completed evaluation packaged for cached serving:
// the prediction tiers certify a configuration once and answer every
// subsequent prediction for it from the stored result.
type Certificate struct {
	Res Result
	// SteadyState reports whether the evaluation proved a periodic
	// steady state and served part of the run in closed form — the
	// precondition auto-tier selection requires before trusting the
	// analytic result without a verification replay per prediction.
	SteadyState bool
}

// Result returns the certified prediction.
func (c *Certificate) Result() Result { return c.Res }

// Eligible reports whether a trace source qualifies for the analytic
// tier: it must expose op structure and every rank must contain at
// least one top-level manageable Repeat (replay.Manageable — the same
// rule the DES fast-forward executor applies), since a workload with
// no steady-state candidate gains nothing over plain DES replay.
func Eligible(src trace.Source) error {
	if src == nil {
		return fmt.Errorf("analytic: nil source")
	}
	ops, ok := src.(trace.OpsSource)
	if !ok {
		return fmt.Errorf("analytic: source is not op-structured (does not implement trace.OpsSource)")
	}
	for r := 0; r < src.Ranks(); r++ {
		found := false
		for _, op := range ops.RankOps(r) {
			if replay.Manageable(op) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("analytic: rank %d has no steady-state candidate (top-level Repeat of >= %d iterations with a leading compute and collectives)", r, replay.FFMinIterations)
		}
	}
	return nil
}

// Evaluate runs one analytic evaluation, building a throwaway model
// for spec.Platform. Callers evaluating many specs against one
// platform should build a Model once and use Model.Evaluate.
func Evaluate(spec Spec) (*Result, error) {
	if spec.Platform == nil {
		return nil, fmt.Errorf("analytic: spec has no platform")
	}
	m, err := NewModel(spec.Platform)
	if err != nil {
		return nil, err
	}
	return m.Evaluate(spec)
}

// Certify is Evaluate packaged as a Certificate.
func Certify(spec Spec) (*Certificate, error) {
	if spec.Platform == nil {
		return nil, fmt.Errorf("analytic: spec has no platform")
	}
	m, err := NewModel(spec.Platform)
	if err != nil {
		return nil, err
	}
	return m.Certify(spec)
}

// Model is the reusable, platform-bound half of the evaluator: the
// float64 network model — link records and a route cache whose
// latencies are summed edge by edge in path order, exactly as the
// realized network's RouteProvider does — built once per platform.
// A Model is safe for concurrent use; sweeps share one per platform
// across workers.
type Model struct {
	gm *gmodel[float64]
}

// NewModel builds the analytic network model for a platform.
func NewModel(plat *platform.Platform) (*Model, error) {
	gm, err := newGModel[float64](f64{}, plat, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Model{gm: gm}, nil
}

// Platform returns the platform the model is bound to.
func (m *Model) Platform() *platform.Platform { return m.gm.plat }

// Evaluate runs one analytic evaluation against the model's platform.
func (m *Model) Evaluate(spec Spec) (*Result, error) {
	src, err := m.validateSpec(&spec)
	if err != nil {
		return nil, err
	}
	var ar f64
	res, err := runGeneric[float64, f64](ar, m.gm, &gspec[float64]{
		hosts:        spec.Hosts,
		submitter:    spec.Submitter,
		scatterBytes: spec.ScatterBytes,
		gatherBytes:  spec.GatherBytes,
		ranks:        liftOps[float64](ar, src),
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		PredictedSeconds:    res.predicted,
		ScatterSeconds:      res.scatter,
		ComputeSeconds:      res.compute,
		GatherSeconds:       res.gather,
		RoundsSimulated:     res.roundsSimulated,
		RoundsFastForwarded: res.roundsFastForwarded,
		Jumps:               res.jumps,
	}, nil
}

// Certify evaluates and packages the outcome for cached serving.
func (m *Model) Certify(spec Spec) (*Certificate, error) {
	res, err := m.Evaluate(spec)
	if err != nil {
		return nil, err
	}
	return &Certificate{Res: *res, SteadyState: res.Jumps > 0}, nil
}

// validateSpec checks the spec's platform and source and returns the
// resolved op source. The host, submitter and deployment-byte checks
// run in newGev, which the tape recorder shares.
func (m *Model) validateSpec(spec *Spec) (trace.OpsSource, error) {
	if spec.Platform != nil && spec.Platform != m.gm.plat {
		return nil, fmt.Errorf("analytic: spec platform %q is not the model's platform %q", spec.Platform.Name, m.gm.plat.Name)
	}
	if spec.Source == nil || spec.Source.Ranks() == 0 {
		return nil, fmt.Errorf("analytic: no traces")
	}
	src, ok := spec.Source.(trace.OpsSource)
	if !ok {
		return nil, fmt.Errorf("analytic: source is not op-structured (does not implement trace.OpsSource)")
	}
	if err := trace.ValidateSource(spec.Source); err != nil {
		return nil, err
	}
	return src, nil
}
