// The evaluation engine: the analytic evaluator written once over an
// abstract float type. Instantiated at float64 (f64.go) it is the
// production evaluator behind Model.Evaluate and Certify; instantiated
// at the tape recorder's symbolic values it becomes a *recording*
// evaluation: every float operation lands on a flat SSA tape over the
// free platform parameters and every parameter-dependent comparison is
// captured as a guard (tape.go). One event loop serves both, so a tape
// records exactly the operation sequence a prediction performs.
//
// The event queue is a sorted array with binary-search insertion.
// Events are ordered by (time, seq), a strict total order with unique
// sequence numbers, so any correct priority queue yields the DES
// kernel's pop sequence; the queue's internal comparisons never feed
// arithmetic. Binary insertion performs few comparisons per event, and
// under recording every comparison is a guard on the tape, so fewer
// comparisons mean shorter tapes and wider guard regions. Events carry
// no pointers (flows are referenced by id), and neither do the flow
// lists and link scratch, which keeps the hot loops free of GC write
// barriers.
package analytic

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/p2psap"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/trace"
)

// loopbackLatency and timeQuantum mirror the netsim constants.
const (
	loopbackLatency = 1e-6
	timeQuantum     = 1e-9
)

// arith is the abstract float64 of the engine. Every arithmetic
// operation and every comparison the evaluator performs on simulated
// quantities goes through it; the float64 instantiation (f64)
// compiles to the raw operations, the recording instantiation
// (*recorder, tape.go) additionally emits tape instructions and
// guards.
type arith[V comparable] interface {
	// Const injects a literal. Implementations intern constants, so
	// repeated injection of the same literal is cheap.
	Const(c float64) V
	// FromInt mirrors float64(n) for control-flow integers (flow
	// counts); n is region-constant under recording.
	FromInt(n int) V

	Add(a, b V) V
	Sub(a, b V) V
	Mul(a, b V) V
	Div(a, b V) V

	// Comparisons. Under recording each evaluation emits a guard
	// pinning the observed outcome (unless both operands are
	// constants, which fold).
	Less(a, b V) bool   // a < b
	LessEq(a, b V) bool // a <= b
	Eq(a, b V) bool     // a == b
	// Cmp is the three-way float comparison (-1: a < b, 0: a == b,
	// +1: otherwise, including unordered). Under recording it emits a
	// single guard per comparison where the Less/Eq pair the event
	// queue would otherwise perform emits two.
	Cmp(a, b V) int
	IsNaN(a V) bool
	IsInfPos(a V) bool // math.IsInf(a, 1)
	// BitsEq is math.Float64bits(a) == math.Float64bits(b) — the
	// steady-state signature comparison, which distinguishes -0/+0
	// where == does not.
	BitsEq(a, b V) bool

	// Float reads the concrete value (under recording: the value at
	// the record point). Used only for error messages and reports,
	// never to feed results back into the evaluation.
	Float(a V) float64
}

// gop is the engine's op tree: trace.Op with NS/Bytes lifted into the
// abstract value domain.
type gop[V comparable] struct {
	count int
	kind  trace.Kind
	peer  int
	ns    V
	bytes V
	body  []gop[V]
}

// liftOps lifts every rank's op tree of src into the value domain.
// All nodes are carved from one backing array, so the lift costs two
// allocations whatever the tree shape.
func liftOps[V comparable, A arith[V]](ar A, src trace.OpsSource) [][]gop[V] {
	n := src.Ranks()
	total := 0
	for r := 0; r < n; r++ {
		total += countOps(src.RankOps(r))
	}
	slab := make([]gop[V], total)
	ranks := make([][]gop[V], n)
	for r := range ranks {
		ranks[r], slab = liftInto[V](ar, src.RankOps(r), slab)
	}
	return ranks
}

func countOps(ops []trace.Op) int {
	n := len(ops)
	for i := range ops {
		n += countOps(ops[i].Body)
	}
	return n
}

// liftInto lifts ops into the head of slab and returns the lifted list
// and the unused rest of slab.
func liftInto[V comparable, A arith[V]](ar A, ops []trace.Op, slab []gop[V]) ([]gop[V], []gop[V]) {
	out, slab := slab[:len(ops):len(ops)], slab[len(ops):]
	for i := range ops {
		op := &ops[i]
		o := &out[i]
		o.count = op.Count
		o.kind = op.Rec.Kind
		o.peer = op.Rec.Peer
		o.ns = ar.Const(op.Rec.NS)
		o.bytes = ar.Const(op.Rec.Bytes)
		if len(op.Body) > 0 {
			o.body, slab = liftInto[V](ar, op.Body, slab)
		}
	}
	return out, slab
}

// gManageable is replay.Manageable over the engine's op tree: the
// qualification rule deciding which top-level Repeats run the
// steady-state boundary protocol. Structure only — no float reads.
func gManageable[V comparable](op *gop[V]) bool {
	if len(op.body) == 0 || op.count < replay.FFMinIterations {
		return false
	}
	lead := &op.body[0]
	if len(lead.body) != 0 || lead.kind != trace.KindCompute {
		return false
	}
	return gHasCollective(op.body)
}

// gHasCollective mirrors the convs+bars > 0 test of trace.Collectives
// (zero-count ops are skipped there exactly as here).
func gHasCollective[V comparable](ops []gop[V]) bool {
	for i := range ops {
		op := &ops[i]
		if op.count <= 0 {
			continue
		}
		if len(op.body) > 0 {
			if gHasCollective(op.body) {
				return true
			}
			continue
		}
		if op.kind == trace.KindConv || op.kind == trace.KindBarrier {
			return true
		}
	}
	return false
}

// galink mirrors netsim.Link: capacity plus a stable index into the
// per-evaluation rate-assignment scratch. order is the link's rank in
// name order, which is the bottleneck-selection order of netsim's
// progressive filling.
type galink[V comparable] struct {
	bandwidth V
	idx       int
	order     int
}

// garoute mirrors netsim.Route: the link sequence and the path latency
// accumulated in path order (float64 addition order matters for bit
// identity with the realized network's routes).
type garoute[V comparable] struct {
	links   []*galink[V]
	latency V
}

// gmodel is the platform-bound half of the evaluator: link records and
// a route cache whose latencies are summed edge by edge in path order.
// Routing itself (the edge sequence) comes from platform.Path, which
// orders by hop count with latency only as a tie-break; families
// scanned symbolically must have value-independent routes (unique
// shortest-hop paths, as in the star and cluster topologies), which
// keeps the edge sequence a constant of the region. The route cache is
// safe for concurrent use.
type gmodel[V comparable] struct {
	plat  *platform.Platform
	edges []platform.Edge
	links map[string]*galink[V]
	nlink int

	// latOver carries per-link latency overrides (symbolic scans bind
	// free latency parameters here); links without one keep the
	// platform's concrete edge latency.
	latOver map[string]V

	mu     sync.Mutex
	routes map[[2]string]*garoute[V]
}

// newGModel builds the network model for a platform. bwOver and
// latOver override the named links' bandwidth and latency with
// abstract values (typically expressions over free parameters); every
// other link keeps its concrete platform value as a constant.
func newGModel[V comparable, A arith[V]](ar A, plat *platform.Platform, bwOver, latOver map[string]V) (*gmodel[V], error) {
	if plat == nil {
		return nil, fmt.Errorf("analytic: nil platform")
	}
	m := &gmodel[V]{
		plat:    plat,
		edges:   plat.Edges(),
		links:   make(map[string]*galink[V]),
		routes:  make(map[[2]string]*garoute[V]),
		latOver: latOver,
	}
	names := make([]string, 0, len(m.edges))
	for _, e := range m.edges {
		if _, ok := m.links[e.LinkName]; ok {
			return nil, fmt.Errorf("analytic: duplicate link %q", e.LinkName)
		}
		bw, ok := bwOver[e.LinkName]
		if !ok {
			bw = ar.Const(e.Bandwidth)
		}
		m.links[e.LinkName] = &galink[V]{bandwidth: bw, idx: m.nlink}
		m.nlink++
		names = append(names, e.LinkName)
	}
	sort.Strings(names)
	for i, name := range names {
		m.links[name].order = i
	}
	for name := range bwOver {
		if _, ok := m.links[name]; !ok {
			return nil, fmt.Errorf("analytic: bandwidth override for unknown link %q", name)
		}
	}
	for name := range latOver {
		if _, ok := m.links[name]; !ok {
			return nil, fmt.Errorf("analytic: latency override for unknown link %q", name)
		}
	}
	return m, nil
}

// constAdder is the slice of arith the route builder needs; gmodel
// carries only V, so route takes the ops as an interface value (cold
// path — routes are cached).
type constAdder[V any] interface {
	Const(float64) V
	Add(a, b V) V
}

// route resolves and caches the directed route between two hosts,
// accumulating the path latency in path order.
func (m *gmodel[V]) route(ar constAdder[V], src, dst string) (*garoute[V], error) {
	key := [2]string{src, dst}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.routes[key]; ok {
		return r, nil
	}
	path, err := m.plat.Path(src, dst)
	if err != nil {
		return nil, fmt.Errorf("analytic: no route %s -> %s: %w", src, dst, err)
	}
	r := &garoute[V]{links: make([]*galink[V], 0, len(path)), latency: ar.Const(0)}
	for _, ei := range path {
		e := &m.edges[ei]
		l := m.links[e.LinkName]
		if l == nil {
			return nil, fmt.Errorf("analytic: link %q not in model", e.LinkName)
		}
		r.links = append(r.links, l)
		lat, ok := m.latOver[e.LinkName]
		if !ok {
			lat = ar.Const(e.Latency)
		}
		r.latency = ar.Add(r.latency, lat)
	}
	m.routes[key] = r
	return r, nil
}

// gspec is the resolved input of one evaluation.
type gspec[V comparable] struct {
	hosts        []string
	submitter    string
	scatterBytes V
	gatherBytes  V
	ranks        [][]gop[V]
}

// gresult mirrors Result with abstract values.
type gresult[V comparable] struct {
	predicted V
	scatter   V
	compute   V
	gather    V

	roundsSimulated     int64
	roundsFastForwarded int64
	jumps               int64
}

// gprof mirrors p2psap.Profile in the value domain. The fields are
// constants of the adapted profile; only the *selection* depends on
// path latency (adaptProfile), which is where the guard lands.
type gprof[V comparable] struct {
	frame V
	send  V
	recv  V
}

// Event kinds. gevResume replaces des process activation (an actor id
// instead of a goroutine handle); gevActivate/gevLoopback are the two
// flow events netsim schedules with plain callbacks; gevAux is the
// epoch-guarded flow-completion estimate.
const (
	gevResume uint8 = iota
	gevActivate
	gevLoopback
	gevAux
)

// gaev is one scheduled occurrence. id is the actor id of a resume and
// the flow id (index in gev.fl) of an activation or loopback delivery.
type gaev[V comparable] struct {
	time  V
	seq   uint64
	epoch uint64 // gevAux
	id    int32
	kind  uint8
}

// gaflow mirrors netsim.Flow, with the delivery callback replaced by
// the (box, gatherRank) pair every replay delivery reduces to: a
// mailbox put, optionally followed by a blocking-send completion
// signal to a worker (the gather path).
type gaflow[V comparable] struct {
	remaining  V
	rate       V
	route      *garoute[V]
	box        *gbox
	gatherRank int32 // worker whose blocking gather send this completes; -1 none
	done       bool
	assigned   bool
}

// glinkState is the per-link scratch of one progressive-filling
// epoch, indexed by galink.idx; order is galink.order.
type glinkState[V comparable] struct {
	residual V
	nflows   int
	mark     uint64
	order    int
}

// gbox mirrors a des.Queue used as a mailbox: payloads never influence
// timing, so items collapse to a count and readers to actor ids served
// in arrival order. With pairwise-distinct hosts a box has one
// possible reader, so readers starts out on the inline buf.
type gbox struct {
	items   int
	readers []int32
	buf     [2]int32
}

// gpair is the lazily filled per-rank-pair state, indexed
// [at*n+from]: the data and control mailboxes at rank `at` for
// messages from rank `from`, and the route from -> at. The (at, from)
// pair mirrors the DES per-(host, tag) mailboxes exactly when hosts
// are pairwise distinct — validated at spec time. prof caches the
// adapted channel profile of the unordered pair, stored in the slot
// [hi*n+lo].
type gpair[V comparable] struct {
	data, ctl *gbox
	route     *garoute[V]
	prof      *gprof[V]
}

// gev is the complete state of one evaluation. It is single-use and
// not safe for concurrent use; the reusable, shareable part lives in
// gmodel.
type gev[V comparable, A arith[V]] struct {
	ar A
	m  *gmodel[V]

	n         int
	hosts     []string
	submitter string

	scatterBytes V
	gatherBytes  V

	// Interned constants of the kernel.
	zero      V
	cNS       V // 1e9
	cLoopback V // netsim loopback latency
	cQuantum  V // netsim completion quantum
	cRemEps   V // netsim remaining-epsilon
	cInf      V // +Inf
	cConv     V // convergence control payload bytes

	// Event queue: sorted descending by (time, seq) pop order, so the
	// next event sits at the back.
	q    []gaev[V]
	seq  uint64
	now  V
	base V
	aux  int
	live int

	// Fluid network. Flows are indices into fl; released flows are
	// reused through freeFlows. A *gaflow is valid only until the next
	// newFlow, which may grow fl.
	flows       int // mirrors len(netsim.Network.flows)
	fl          []gaflow[V]
	flowOrder   []int32
	freeFlows   []int32
	finished    []int32
	lastUpdate  V
	epoch       uint64
	linkStates  []glinkState[V]
	activeLinks []int32 // indices into linkStates
	rateMark    uint64

	// Mailboxes and per-pair caches.
	pendingMsgs int
	scatterBox  []gbox
	gatherBox   gbox
	pairs       []gpair[V] // n*n, see gpair

	// p2pdc run bookkeeping (mirrors p2pdc.Environment.Run locals).
	scatterEnd  V
	computeEnd  V
	computeDone int
	errs        []error

	// Actors. Ids: 0..n-1 workers, n submitter, n+1 watchdog.
	workers   []gworker[V, A]
	subPhase  int
	subGot    int
	wdPhase   int // 0 not activated, 1 parked on cond, 2 signaled, 3 done
	wdPending bool

	ctl gctl[V, A]
}

// workerFrames is the op-walk depth preallocated per worker: the top
// level, a managed Repeat, its body rest and one nested body.
const workerFrames = 4

// newGev validates the spec's hosts and deployment against the model
// and builds the evaluator. The float checks on deployment bytes run
// through the arith so the recording instantiation guards them.
func newGev[V comparable, A arith[V]](ar A, m *gmodel[V], sp *gspec[V]) (*gev[V, A], error) {
	n := len(sp.ranks)
	if n == 0 {
		return nil, fmt.Errorf("analytic: no traces")
	}
	if len(sp.hosts) != n {
		return nil, fmt.Errorf("analytic: %d hosts for %d traces", len(sp.hosts), n)
	}
	if nd := m.plat.Node(sp.submitter); nd == nil || nd.Router {
		return nil, fmt.Errorf("analytic: unknown submitter host %q", sp.submitter)
	}
	seen := make(map[string]bool, n)
	for _, h := range sp.hosts {
		if nd := m.plat.Node(h); nd == nil || nd.Router {
			return nil, fmt.Errorf("analytic: unknown host %q", h)
		}
		if seen[h] {
			return nil, fmt.Errorf("analytic: host %q used by two ranks; the analytic tier needs pairwise-distinct hosts", h)
		}
		seen[h] = true
	}
	zero := ar.Const(0)
	if ar.Less(sp.scatterBytes, zero) || ar.IsNaN(sp.scatterBytes) || ar.Less(sp.gatherBytes, zero) || ar.IsNaN(sp.gatherBytes) {
		return nil, fmt.Errorf("analytic: invalid deployment bytes scatter=%v gather=%v", ar.Float(sp.scatterBytes), ar.Float(sp.gatherBytes))
	}
	ev := &gev[V, A]{
		ar:           ar,
		m:            m,
		n:            n,
		hosts:        sp.hosts,
		submitter:    sp.submitter,
		scatterBytes: sp.scatterBytes,
		gatherBytes:  sp.gatherBytes,
		zero:         zero,
		cNS:          ar.Const(1e9),
		cLoopback:    ar.Const(loopbackLatency),
		cQuantum:     ar.Const(timeQuantum),
		cRemEps:      ar.Const(1e-9),
		cInf:         ar.Const(math.Inf(1)),
		cConv:        ar.Const(convBytes),
		now:          zero,
		base:         zero,
		lastUpdate:   zero,
		scatterEnd:   zero,
		computeEnd:   zero,
		q:            make([]gaev[V], 0, 2*n+4),
		fl:           make([]gaflow[V], 0, 2*n+4),
		linkStates:   make([]glinkState[V], m.nlink),
		scatterBox:   make([]gbox, n),
		pairs:        make([]gpair[V], n*n),
		errs:         make([]error, n),
		workers:      make([]gworker[V, A], n),
	}
	ev.ctl = gctl[V, A]{ev: ev, n: n, reps: make(map[arepKey]*grepCtl[V, A])}
	frames := make([]gwframe[V, A], n*workerFrames)
	for i := range ev.workers {
		w := &ev.workers[i]
		w.ev = ev
		w.rank = i
		w.ops = sp.ranks[i]
		w.frames = frames[i*workerFrames : i*workerFrames : (i+1)*workerFrames]
	}
	return ev, nil
}

// run seeds the three actor groups in p2pdc spawn order — submitter,
// then the workers in rank order, then the watchdog, all activating at
// t=0 — and drives the event loop to completion.
func (ev *gev[V, A]) run() (*gresult[V], error) {
	ev.live = ev.n + 2
	ev.scheduleResume(ev.zero, ev.n) // submitter
	for i := 0; i < ev.n; i++ {
		ev.scheduleResume(ev.zero, i)
	}
	ev.scheduleResume(ev.zero, ev.n+1) // watchdog
	if err := ev.drive(); err != nil {
		return nil, err
	}
	if ev.computeDone != ev.n {
		return nil, fmt.Errorf("analytic: only %d of %d workers finished", ev.computeDone, ev.n)
	}
	if err := ev.firstErr(); err != nil {
		return nil, err
	}
	ar := ev.ar
	total := ev.absNow()
	res := &gresult[V]{
		predicted:           total,
		scatter:             ev.scatterEnd,
		compute:             ar.Sub(ev.computeEnd, ev.scatterEnd),
		gather:              ar.Sub(total, ev.computeEnd),
		roundsSimulated:     ev.ctl.roundsSim,
		roundsFastForwarded: ev.ctl.roundsFF,
		jumps:               ev.ctl.jumps,
	}
	if ar.Less(res.gather, ev.zero) {
		res.gather = ev.zero
	}
	return res, nil
}

func (ev *gev[V, A]) firstErr() error {
	for _, err := range ev.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Event queue

// popsBefore reports whether x pops before y in the (time, seq) total
// order. The time comparisons run through the arith (guards under
// recording); the seq tie-break is control-flow.
func (ev *gev[V, A]) popsBefore(x, y *gaev[V]) bool {
	switch ev.ar.Cmp(x.time, y.time) {
	case -1:
		return true
	case 1:
		return false
	}
	return x.seq < y.seq
}

// push schedules an event. The sequence counter advances exactly once
// per call, mirroring des.Simulation scheduling, which keeps event
// identity — and therefore every tie-break — in lockstep with the DES
// kernel.
func (ev *gev[V, A]) push(e gaev[V]) {
	ev.seq++
	e.seq = ev.seq
	// Binary-search the insertion point: q is sorted descending by pop
	// order, so everything popping after e stays to its left.
	lo, hi := 0, len(ev.q)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if ev.popsBefore(&e, &ev.q[h]) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	ev.q = append(ev.q, gaev[V]{})
	q := ev.q
	copy(q[lo+1:], q[lo:])
	q[lo] = e
}

// pop removes and returns the next event (the back of the array).
func (ev *gev[V, A]) pop() gaev[V] {
	n := len(ev.q) - 1
	e := ev.q[n]
	ev.q = ev.q[:n]
	return e
}

// resortQueue re-establishes the descending order after a uniform time
// shift — float subtraction can collapse nearby times and flip a seq
// tie-break, exactly as the DES kernel's post-shift reheap can.
// Insertion sort: adaptive (the array stays nearly sorted), stable in
// the comparisons it performs, and cheap in guards.
func (ev *gev[V, A]) resortQueue() {
	q := ev.q
	for i := 1; i < len(q); i++ {
		e := q[i]
		j := i - 1
		for j >= 0 && ev.popsBefore(&q[j], &e) {
			q[j+1] = q[j]
			j--
		}
		q[j+1] = e
	}
}

// scheduleResume mirrors des scheduleActivate: actor wakeup at
// now+delay.
func (ev *gev[V, A]) scheduleResume(delay V, id int) {
	ev.push(gaev[V]{time: ev.ar.Add(ev.now, delay), kind: gevResume, id: int32(id)})
}

// scheduleResumeAt mirrors scheduleActivateAt: wakeup at the exact
// in-epoch time t, with no now+(t-now) round trip.
func (ev *gev[V, A]) scheduleResumeAt(t V, id int) {
	ev.push(gaev[V]{time: t, kind: gevResume, id: int32(id)})
}

// scheduleAux mirrors des.ScheduleAux.
func (ev *gev[V, A]) scheduleAux(delay V, epoch uint64) {
	ev.push(gaev[V]{time: ev.ar.Add(ev.now, delay), kind: gevAux, epoch: epoch})
	ev.aux++
}

// pendingReal mirrors des.Simulation.PendingReal.
func (ev *gev[V, A]) pendingReal() int { return len(ev.q) - ev.aux }

// discardAux mirrors des.Simulation.DiscardAux: drop every pending
// auxiliary event in place. The filter preserves the sorted order, so
// no re-sort (and no guards) needed.
func (ev *gev[V, A]) discardAux() {
	if ev.aux == 0 {
		return
	}
	q := ev.q
	keep := q[:0]
	for i := range q {
		if q[i].kind != gevAux {
			keep = append(keep, q[i])
		}
	}
	ev.q = keep
	ev.aux = 0
}

// absNow mirrors des.Simulation.AbsNow.
func (ev *gev[V, A]) absNow() V { return ev.ar.Add(ev.base, ev.now) }

// rebase mirrors des.Simulation.Rebase plus the netsim rebase hook
// (the only hook the DES stack registers).
func (ev *gev[V, A]) rebase() V {
	ar := ev.ar
	shift := ev.now
	if ar.Eq(shift, ev.zero) {
		return ev.zero
	}
	ev.base = ar.Add(ev.base, shift)
	ev.now = ev.zero
	q := ev.q
	for i := range q {
		q[i].time = ar.Sub(q[i].time, shift)
	}
	ev.resortQueue()
	if ev.flows == 0 {
		ev.lastUpdate = ev.zero
	} else {
		ev.lastUpdate = ar.Sub(ev.lastUpdate, shift)
	}
	return shift
}

// advanceBase mirrors des.Simulation.AdvanceBase: iterated addition,
// never multiplication, so a jump lands on the bit-identical base a
// full simulation would reach.
func (ev *gev[V, A]) advanceBase(delta V, rounds int) {
	for i := 0; i < rounds; i++ {
		ev.base = ev.ar.Add(ev.base, delta)
	}
}

// drive pops events to completion, mirroring des.Simulation.Run. A
// drained queue with live actors is the stall the DES kernel reports
// as a deadlock panic; here it surfaces as an error.
func (ev *gev[V, A]) drive() error {
	for len(ev.q) > 0 {
		e := ev.pop()
		if e.kind == gevAux {
			ev.aux--
		}
		if ev.ar.Less(e.time, ev.now) {
			return fmt.Errorf("analytic: time went backwards (%v < %v)", ev.ar.Float(e.time), ev.ar.Float(ev.now))
		}
		ev.now = e.time
		switch e.kind {
		case gevResume:
			ev.resumeActor(int(e.id))
		case gevActivate:
			ev.activateFlow(e.id)
		case gevLoopback:
			ev.deliver(&ev.fl[e.id])
			ev.releaseFlow(e.id)
		case gevAux:
			if e.epoch == ev.epoch {
				ev.advanceFlows()
				ev.recompute()
			}
		}
	}
	if ev.live > 0 {
		return fmt.Errorf("analytic: execution stalled: %d actor(s) parked with an empty event queue at t=%v (first error: %v)", ev.live, ev.ar.Float(ev.now), ev.firstErr())
	}
	return nil
}

// ---------------------------------------------------------------------------
// Counter mailboxes

// tryGet mirrors des.Queue.Get: take the head item when present,
// otherwise register as a reader and report blocked. Like Get's
// re-check loop, a woken caller must call tryGet again.
func (ev *gev[V, A]) tryGet(b *gbox, id int) bool {
	if b.items == 0 {
		if b.readers == nil {
			b.readers = b.buf[:0]
		}
		b.readers = append(b.readers, int32(id))
		return false
	}
	b.items--
	ev.pendingMsgs--
	return true
}

// put mirrors des.Queue.Put: append and wake the oldest reader via a
// zero-delay resume event. pendingMsgs mirrors Post.PendingMessages —
// delivered-but-unconsumed messages across all mailboxes.
func (ev *gev[V, A]) put(b *gbox) {
	b.items++
	ev.pendingMsgs++
	if len(b.readers) > 0 {
		r := b.readers[0]
		b.readers = b.readers[:copy(b.readers, b.readers[1:])]
		ev.scheduleResume(ev.zero, int(r))
	}
}

// boxAt returns the lazily created peer mailbox of the given traffic
// class for messages arriving at rank `at` from rank `from`.
func (ev *gev[V, A]) boxAt(ctl bool, at, from int) *gbox {
	p := &ev.pairs[at*ev.n+from]
	b := &p.data
	if ctl {
		b = &p.ctl
	}
	if *b == nil {
		*b = &gbox{}
	}
	return *b
}

// hostOf names an endpoint: ranks 0..n-1, then the submitter at n.
func (ev *gev[V, A]) hostOf(i int) string {
	if i == ev.n {
		return ev.submitter
	}
	return ev.hosts[i]
}

// route returns the route between two endpoints (see hostOf).
// Rank-to-rank routes are cached per evaluation in the pair table, so
// the model's shared cache is consulted once per pair.
func (ev *gev[V, A]) route(src, dst int) (*garoute[V], error) {
	if src == ev.n || dst == ev.n {
		return ev.m.route(ev.ar, ev.hostOf(src), ev.hostOf(dst))
	}
	p := &ev.pairs[dst*ev.n+src]
	if p.route == nil {
		rt, err := ev.m.route(ev.ar, ev.hosts[src], ev.hosts[dst])
		if err != nil {
			return nil, err
		}
		p.route = rt
	}
	return p.route, nil
}

// adaptProfile mirrors p2psap.AdaptProfile: the profile *fields* are
// constants; the selection thresholds on path latency are where a
// symbolic scan's guards land, so crossing a profile boundary starts a
// new tape region.
func (ev *gev[V, A]) adaptProfile(lat V) gprof[V] {
	ar := ev.ar
	var p p2psap.Profile
	switch {
	case ar.Less(lat, ar.Const(0.5e-3)):
		p = p2psap.ClusterProfile
	case ar.Less(lat, ar.Const(5e-3)):
		p = p2psap.LANProfile
	default:
		p = p2psap.WANProfile
	}
	return gprof[V]{frame: ar.Const(p.FrameBytes), send: ar.Const(p.SendOverhead), recv: ar.Const(p.RecvOverhead)}
}

// profileFor returns the adapted P2PSAP profile of a rank pair,
// probing the zero-byte transfer time exactly as Protocol.Channel
// does (path latency + 0/bottleneck = path latency).
func (ev *gev[V, A]) profileFor(a, b int) (*gprof[V], error) {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	slot := &ev.pairs[hi*ev.n+lo]
	if slot.prof != nil {
		return slot.prof, nil
	}
	var lat V
	if ev.hosts[lo] == ev.hosts[hi] {
		lat = ev.cLoopback
	} else {
		rt, err := ev.route(lo, hi)
		if err != nil {
			return nil, fmt.Errorf("analytic: cannot probe %s<->%s: %w", ev.hosts[lo], ev.hosts[hi], err)
		}
		lat = rt.latency
	}
	p := ev.adaptProfile(lat)
	slot.prof = &p
	return &p, nil
}

// checkPeer mirrors p2pdc.Worker.channel's range check.
func (ev *gev[V, A]) checkPeer(peer int) error {
	if peer < 0 || peer >= ev.n {
		return fmt.Errorf("analytic: rank %d out of range [0,%d)", peer, ev.n)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fluid network: netsim's flow model on the event loop. Flow order,
// progressive-filling order, the link-name tie-break, the completion
// quantum and the loopback constant are carried over verbatim, so the
// assigned rates and completion instants are the values netsim
// computes.

func (ev *gev[V, A]) newFlow() int32 {
	if k := len(ev.freeFlows); k > 0 {
		id := ev.freeFlows[k-1]
		ev.freeFlows = ev.freeFlows[:k-1]
		return id
	}
	ev.fl = append(ev.fl, gaflow[V]{})
	return int32(len(ev.fl) - 1)
}

func (ev *gev[V, A]) releaseFlow(id int32) {
	ev.freeFlows = append(ev.freeFlows, id)
}

// deliver mirrors the replay delivery callbacks: mailbox put first,
// then the blocking-send condition signal — the same order the DES
// gather path schedules its wakeups in (Post.Send's onDone puts, then
// signals).
func (ev *gev[V, A]) deliver(f *gaflow[V]) {
	if f.box != nil {
		ev.put(f.box)
	}
	if f.gatherRank >= 0 {
		w := &ev.workers[f.gatherRank]
		if w.gatherWaiting {
			w.gatherWaiting = false
			ev.scheduleResume(ev.zero, int(f.gatherRank))
		} else {
			w.gatherPending = true
		}
	}
}

// startFlow mirrors netsim.Network.startFlow (the transient path the
// message layer always uses) between two endpoints (see hostOf).
func (ev *gev[V, A]) startFlow(src, dst int, bytes V, box *gbox, gatherRank int) error {
	ar := ev.ar
	if ar.Less(bytes, ev.zero) || ar.IsNaN(bytes) {
		return fmt.Errorf("analytic: invalid flow size %v", ar.Float(bytes))
	}
	var rt *garoute[V]
	loopback := ev.hostOf(src) == ev.hostOf(dst)
	if !loopback {
		var err error
		if rt, err = ev.route(src, dst); err != nil {
			return err
		}
	}
	id := ev.newFlow()
	ev.fl[id] = gaflow[V]{
		remaining:  bytes,
		rate:       ev.zero,
		route:      rt,
		box:        box,
		gatherRank: int32(gatherRank),
		done:       loopback,
	}
	if loopback {
		ev.push(gaev[V]{time: ar.Add(ev.now, ev.cLoopback), kind: gevLoopback, id: id})
		return nil
	}
	ev.push(gaev[V]{time: ar.Add(ev.now, rt.latency), kind: gevActivate, id: id})
	return nil
}

// activateFlow mirrors netsim.Network.activateFlow.
func (ev *gev[V, A]) activateFlow(id int32) {
	ev.advanceFlows()
	if f := &ev.fl[id]; ev.ar.LessEq(f.remaining, ev.zero) {
		f.done = true
		ev.deliver(f)
		ev.releaseFlow(id)
		return
	}
	ev.flows++
	ev.flowOrder = append(ev.flowOrder, id)
	ev.recompute()
}

// advanceFlows mirrors netsim.Network.advance.
func (ev *gev[V, A]) advanceFlows() {
	ar := ev.ar
	dt := ar.Sub(ev.now, ev.lastUpdate)
	if ar.Less(ev.zero, dt) {
		for _, id := range ev.flowOrder {
			if f := &ev.fl[id]; !f.done {
				f.remaining = ar.Sub(f.remaining, ar.Mul(f.rate, dt))
				if ar.Less(f.remaining, ev.cRemEps) {
					f.remaining = ev.zero
				}
			}
		}
	}
	ev.lastUpdate = ev.now
}

// finishCompleted mirrors netsim.Network.finishCompleted: completed
// flows leave the sharing set first, then their deliveries run in flow
// order.
func (ev *gev[V, A]) finishCompleted() {
	ar := ev.ar
	finished := ev.finished[:0]
	for _, id := range ev.flowOrder {
		if f := &ev.fl[id]; !f.done && ar.LessEq(f.remaining, ev.zero) {
			f.done = true
			finished = append(finished, id)
			ev.flows--
		}
	}
	if len(finished) > 0 {
		keep := ev.flowOrder[:0]
		for _, id := range ev.flowOrder {
			if !ev.fl[id].done {
				keep = append(keep, id)
			}
		}
		ev.flowOrder = ev.flowOrder[:len(keep)]
	}
	for _, id := range finished {
		ev.deliver(&ev.fl[id])
		ev.releaseFlow(id)
	}
	if cap(finished) > cap(ev.finished) {
		ev.finished = finished // keep the grown buffer
	}
}

// recompute mirrors netsim.Network.recompute.
func (ev *gev[V, A]) recompute() {
	ar := ev.ar
	for {
		ev.finishCompleted()
		ev.assignRates()
		next := ev.cInf
		for _, id := range ev.flowOrder {
			if f := &ev.fl[id]; ar.Less(ev.zero, f.rate) {
				t := ar.Div(f.remaining, f.rate)
				if ar.Less(t, next) {
					next = t
				}
			}
		}
		if ar.IsInfPos(next) {
			ev.epoch++
			// Mirror netsim's idle skip (its default): with no flows
			// left, every queued completion estimate is stale — drop
			// them instead of popping no-ops.
			if ev.flows == 0 {
				ev.discardAux()
			}
			return
		}
		if ar.LessEq(next, ev.cQuantum) {
			for _, id := range ev.flowOrder {
				if f := &ev.fl[id]; ar.Less(ev.zero, f.rate) && ar.LessEq(f.remaining, ar.Mul(f.rate, ev.cQuantum)) {
					f.remaining = ev.zero
				}
			}
			continue
		}
		ev.epoch++
		ev.scheduleAux(next, ev.epoch)
		return
	}
}

// assignRates mirrors netsim.Network.assignRates: progressive filling
// in flow order, bottleneck selection over link states sorted by link
// name.
func (ev *gev[V, A]) assignRates() {
	ar := ev.ar
	ls := ev.linkStates
	ev.rateMark++
	mark := ev.rateMark
	active := ev.activeLinks[:0]
	unassigned := 0
	for _, id := range ev.flowOrder {
		f := &ev.fl[id]
		if f.done {
			continue
		}
		f.rate = ev.zero
		f.assigned = false
		unassigned++
		for _, l := range f.route.links {
			st := &ls[l.idx]
			if st.mark != mark {
				st.mark = mark
				st.order = l.order
				st.residual = l.bandwidth
				st.nflows = 0
				active = append(active, int32(l.idx))
			}
			st.nflows++
		}
	}
	// Sort by link name rank. Link names are unique, so this insertion
	// sort realizes netsim's strict total order by name — and performs
	// no float comparisons.
	for i := 1; i < len(active); i++ {
		e := active[i]
		j := i - 1
		for j >= 0 && ls[active[j]].order > ls[e].order {
			active[j+1] = active[j]
			j--
		}
		active[j+1] = e
	}
	if cap(active) > cap(ev.activeLinks) {
		ev.activeLinks = active // keep the grown buffer
	}

	for unassigned > 0 {
		bottleneck := -1
		fair := ev.cInf
		for _, li := range active {
			st := &ls[li]
			if st.nflows == 0 {
				continue
			}
			f := ar.Div(st.residual, ar.FromInt(st.nflows))
			if ar.Less(f, fair) {
				fair = f
				bottleneck = int(li)
			}
		}
		if bottleneck < 0 {
			break
		}
		for _, id := range ev.flowOrder {
			f := &ev.fl[id]
			if f.done || f.assigned {
				continue
			}
			crosses := false
			for _, l := range f.route.links {
				if l.idx == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			f.rate = fair
			f.assigned = true
			unassigned--
			for _, l := range f.route.links {
				st := &ls[l.idx]
				st.residual = ar.Sub(st.residual, fair)
				if ar.Less(st.residual, ev.zero) {
					st.residual = ev.zero
				}
				st.nflows--
			}
		}
	}
}
