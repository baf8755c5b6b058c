// Guarded evaluation tapes: the analytic evaluation compiled to
// straight-line form.
//
// A Tape is produced by running the evaluation engine (gengine.go) once
// with the recording arithmetic below: every float64 operation the
// evaluator performs lands as one SSA instruction over the free
// platform parameters (operations on record-time constants fold), and
// every parameter-dependent comparison — flow-finish ordering, event-
// queue priorities, profile-threshold selection, fast-forward
// signature bit checks, validity checks — is captured as a *guard*
// pinning the outcome the recording observed.
//
// Replaying the tape at a new parameter point is a branch-free array
// walk performing the same float operations in the same order the
// full evaluator would, so when every guard re-evaluates to its
// recorded outcome the control flow of a full evaluation at that
// point is *provably identical* to the recorded one, and the replayed
// outputs are bit-identical to what Model.Evaluate would produce — not
// approximately, but by construction. A guard violation means the
// point lies outside the recorded control-flow region; the caller
// falls back to a fresh full evaluation, which records a new tape for
// that region (lazy, trace-JIT-style partitioning of the parameter
// space).
//
// The same tape supports forward-mode dual-number replay (Tape.Grad):
// within a guard region the prediction is a composition of smooth
// float operations, so the dual pass computes the exact partial
// derivatives of the prediction with respect to every free parameter.
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

// Tape instruction opcodes.
const (
	topAdd uint8 = iota
	topSub
	topMul
	topDiv
)

// Guard opcodes. Unary guards (tgNAN, tgINF) carry the operand in a;
// b is unused.
const (
	tgLT   uint8 = iota // a < b
	tgLE                // a <= b
	tgEQ                // a == b
	tgBITS              // Float64bits(a) == Float64bits(b)
	tgNAN               // IsNaN(a)
	tgINF               // IsInf(a, 1)
)

// tinstr is one arithmetic instruction. The destination register is
// implicit: instruction i writes register np+nconst+i.
type tinstr struct {
	op   uint8
	a, b int32
}

// tguard pins one comparison outcome: op(a, b) must equal want.
type tguard struct {
	op   uint8
	want bool
	a, b int32
}

// sgroup is the index of guard g's group in Tape.guards: gkey(op,
// want) for a tgLT..tgBITS guard, and one last group, gUnary, for the
// rare unary guards (tgNAN, tgINF).
func sgroup(g tguard) int {
	if g.op > tgBITS {
		return gUnary
	}
	return gkey(g.op, g.want)
}

// gkey is the group of the tgLT..tgBITS guards of op wanting want.
func gkey(op uint8, want bool) int {
	if want {
		return 2*int(op) + 1
	}
	return 2 * int(op)
}

// gUnary is the group of the unary guards; see sgroup.
const gUnary = 2*int(tgBITS) + 2

// sval is the recording value: a handle to one SSA register. The zero
// value refers to register 0, which the recorder pins to the constant
// 0.0 — so zero-initialized engine state is well-formed.
type sval struct{ reg int32 }

// rdef identifies an operation by opcode and operands — the CSE and
// guard-dedup key. Dedup is only ever by *operand identity*, never by
// value: two registers that happen to hold equal values at the record
// point may diverge at other points.
type rdef struct {
	op   uint8
	a, b int32
}

// Register kinds during recording.
const (
	rkConst uint8 = iota
	rkParam
	rkOp
)

// recorder implements arith[sval]: arithmetic on record-point values
// that additionally emits the tape. It is single-use and not safe for
// concurrent use.
type recorder struct {
	vals   []float64 // value at the record point, per register
	kinds  []uint8
	defs   []rdef // meaningful for rkOp registers
	consts map[uint64]int32
	cse    map[rdef]int32
	gseen  map[rdef]int
	guards []tguard
	nparam int
}

func newRecorder(point []float64) *recorder {
	r := &recorder{
		consts: make(map[uint64]int32),
		cse:    make(map[rdef]int32),
		gseen:  make(map[rdef]int),
		nparam: len(point),
	}
	r.constReg(0) // register 0: the constant 0.0 (sval zero value)
	for _, v := range point {
		r.vals = append(r.vals, v)
		r.kinds = append(r.kinds, rkParam)
		r.defs = append(r.defs, rdef{})
	}
	return r
}

func (r *recorder) param(i int) sval { return sval{int32(1 + i)} }

func (r *recorder) constReg(c float64) int32 {
	b := math.Float64bits(c)
	if i, ok := r.consts[b]; ok {
		return i
	}
	i := int32(len(r.vals))
	r.vals = append(r.vals, c)
	r.kinds = append(r.kinds, rkConst)
	r.defs = append(r.defs, rdef{})
	r.consts[b] = i
	return i
}

func (r *recorder) Const(c float64) sval { return sval{r.constReg(c)} }
func (r *recorder) FromInt(n int) sval   { return sval{r.constReg(float64(n))} }
func (r *recorder) Float(a sval) float64 { return r.vals[a.reg] }

func (r *recorder) bin(op uint8, a, b sval) sval {
	va, vb := r.vals[a.reg], r.vals[b.reg]
	var v float64
	switch op {
	case topAdd:
		v = va + vb
	case topSub:
		v = va - vb
	case topMul:
		v = va * vb
	default:
		v = va / vb
	}
	if r.kinds[a.reg] == rkConst && r.kinds[b.reg] == rkConst {
		return sval{r.constReg(v)}
	}
	key := rdef{op: op, a: a.reg, b: b.reg}
	if i, ok := r.cse[key]; ok {
		return sval{i}
	}
	i := int32(len(r.vals))
	r.vals = append(r.vals, v)
	r.kinds = append(r.kinds, rkOp)
	r.defs = append(r.defs, key)
	r.cse[key] = i
	return sval{i}
}

func (r *recorder) Add(a, b sval) sval { return r.bin(topAdd, a, b) }
func (r *recorder) Sub(a, b sval) sval { return r.bin(topSub, a, b) }
func (r *recorder) Mul(a, b sval) sval { return r.bin(topMul, a, b) }
func (r *recorder) Div(a, b sval) sval { return r.bin(topDiv, a, b) }

// guard records a comparison outcome unless both operands are
// record-time constants (then the outcome holds at every point and
// folds away). Re-comparisons of the same operand pair dedup.
func (r *recorder) guard(op uint8, a, b sval, outcome bool) {
	if r.kinds[a.reg] == rkConst && r.kinds[b.reg] == rkConst {
		return
	}
	key := rdef{op: op, a: a.reg, b: b.reg}
	if _, ok := r.gseen[key]; ok {
		return
	}
	r.gseen[key] = len(r.guards)
	r.guards = append(r.guards, tguard{op: op, want: outcome, a: a.reg, b: b.reg})
}

func (r *recorder) Less(a, b sval) bool {
	out := r.vals[a.reg] < r.vals[b.reg]
	r.guard(tgLT, a, b, out)
	return out
}

func (r *recorder) LessEq(a, b sval) bool {
	out := r.vals[a.reg] <= r.vals[b.reg]
	r.guard(tgLE, a, b, out)
	return out
}

func (r *recorder) Eq(a, b sval) bool {
	out := r.vals[a.reg] == r.vals[b.reg]
	r.guard(tgEQ, a, b, out)
	return out
}

// Cmp pins a three-way comparison with a single guard: a strict LT
// guard in the ordered unequal cases (strict inequality implies the
// operands differ, so no separate EQ guard is needed), an EQ guard on
// equality. The unordered case (a NaN operand — unreachable for event
// times, which are validated non-NaN at the inputs) pins NaN-ness of
// both operands instead.
func (r *recorder) Cmp(a, b sval) int {
	va, vb := r.vals[a.reg], r.vals[b.reg]
	switch {
	case va < vb:
		r.guard(tgLT, a, b, true)
		return -1
	case vb < va:
		r.guard(tgLT, b, a, true)
		return 1
	case va == vb:
		r.guard(tgEQ, a, b, true)
		return 0
	default:
		r.guard(tgNAN, a, a, va != va)
		r.guard(tgNAN, b, b, vb != vb)
		return 1
	}
}

func (r *recorder) IsNaN(a sval) bool {
	v := r.vals[a.reg]
	out := v != v
	r.guard(tgNAN, a, a, out)
	return out
}

func (r *recorder) IsInfPos(a sval) bool {
	out := math.IsInf(r.vals[a.reg], 1)
	r.guard(tgINF, a, a, out)
	return out
}

func (r *recorder) BitsEq(a, b sval) bool {
	out := math.Float64bits(r.vals[a.reg]) == math.Float64bits(r.vals[b.reg])
	r.guard(tgBITS, a, b, out)
	return out
}

// ---------------------------------------------------------------------------
// Tape

// Tape is one compiled guard region: the straight-line float program
// of an analytic evaluation over NumParams free parameters, plus the
// guards delimiting the parameter region the program is valid in. A
// Tape is immutable after compilation and safe for concurrent replay.
type Tape struct {
	np     int
	consts []float64
	instrs []tinstr
	// guards are grouped by kind and wanted outcome (see sgroup):
	// group k is guards[gend[k-1]:gend[k]] (gend[-1] = 0), so scalar
	// replay checks each group in a tight loop. byReg lists the guard
	// indices in order of highest operand register: batch replay
	// walks it to check each guard as soon as its operands exist,
	// while they are cache-hot.
	guards []tguard
	gend   [gUnary + 1]int32
	byReg  []int32
	outs   [4]int32 // predicted, scatter, compute, gather

	// Region-constant integer outputs (control flow is fixed within
	// the region, so round accounting is too).
	roundsSim, roundsFF, jumps int64

	nregs int
	bufs  sync.Pool
	bufs8 sync.Pool
}

// NumParams returns the number of free parameters.
func (t *Tape) NumParams() int { return t.np }

// NumInstrs returns the arithmetic instruction count after dead-code
// elimination.
func (t *Tape) NumInstrs() int { return len(t.instrs) }

// NumGuards returns the guard count.
func (t *Tape) NumGuards() int { return len(t.guards) }

// NumConsts returns the live-constant count.
func (t *Tape) NumConsts() int { return len(t.consts) }

// finalize runs dead-code elimination from the outputs and guard
// operands, renumbers registers into [params | consts | results]
// layout, and freezes the tape.
func (r *recorder) finalize(outs [4]sval, roundsSim, roundsFF, jumps int64) *Tape {
	n := len(r.vals)
	live := make([]bool, n)
	var stack []int32
	root := func(reg int32) {
		if !live[reg] {
			live[reg] = true
			stack = append(stack, reg)
		}
	}
	for _, o := range outs {
		root(o.reg)
	}
	for _, g := range r.guards {
		root(g.a)
		root(g.b)
	}
	for len(stack) > 0 {
		reg := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r.kinds[reg] == rkOp {
			d := r.defs[reg]
			root(d.a)
			root(d.b)
		}
	}

	t := &Tape{np: r.nparam}
	remap := make([]int32, n)
	// Parameters occupy registers 0..np-1 whether or not the
	// evaluation read them: replay binds by position.
	for i := 0; i < r.nparam; i++ {
		remap[1+i] = int32(i)
	}
	next := int32(r.nparam)
	for reg := 0; reg < n; reg++ {
		if live[reg] && r.kinds[reg] == rkConst {
			remap[reg] = next
			t.consts = append(t.consts, r.vals[reg])
			next++
		}
	}
	for reg := 0; reg < n; reg++ {
		if live[reg] && r.kinds[reg] == rkOp {
			d := r.defs[reg]
			remap[reg] = next
			t.instrs = append(t.instrs, tinstr{op: d.op, a: remap[d.a], b: remap[d.b]})
			next++
		}
	}
	t.guards = make([]tguard, 0, len(r.guards))
	for _, g := range r.guards {
		// Same-register LT and BITS guards are tautologies at every
		// point (a < a is false and Float64bits(a) == Float64bits(a)
		// is true for any float64, NaN included) — drop them. LE and
		// EQ same-register guards stay: a NaN flips their outcome.
		if g.a == g.b && ((g.op == tgLT && !g.want) || (g.op == tgBITS && g.want)) {
			continue
		}
		t.guards = append(t.guards, tguard{op: g.op, want: g.want, a: remap[g.a], b: remap[g.b]})
	}
	// Guards are an AND over the region, so their order is free.
	// Group them by kind for scalar replay, and index them by highest
	// operand register for batch replay, which then checks each guard
	// soon after its operands were computed, while they are still in
	// cache. (Stable sorts on deterministic keys keep recording order
	// for equal keys.)
	sort.SliceStable(t.guards, func(i, j int) bool {
		return sgroup(t.guards[i]) < sgroup(t.guards[j])
	})
	t.byReg = make([]int32, len(t.guards))
	for i, g := range t.guards {
		t.gend[sgroup(g)]++
		t.byReg[i] = int32(i)
	}
	for k := 1; k < len(t.gend); k++ {
		t.gend[k] += t.gend[k-1]
	}
	sort.SliceStable(t.byReg, func(i, j int) bool {
		gi, gj := t.guards[t.byReg[i]], t.guards[t.byReg[j]]
		return max32(gi.a, gi.b) < max32(gj.a, gj.b)
	})
	for i, o := range outs {
		t.outs[i] = remap[o.reg]
	}
	t.roundsSim, t.roundsFF, t.jumps = roundsSim, roundsFF, jumps
	t.nregs = int(next)
	np, nc := t.np, len(t.consts)
	consts := t.consts
	nregs := t.nregs
	t.bufs.New = func() any {
		rs := make([]float64, nregs)
		copy(rs[np:np+nc], consts) // constants survive reuse untouched
		return &rs
	}
	t.bufs8.New = func() any {
		rs := make([]float64, nregs*BatchLanes)
		for i, c := range consts {
			row := rs[(np+i)*BatchLanes:]
			for l := 0; l < BatchLanes; l++ {
				row[l] = c
			}
		}
		return &rs
	}
	return t
}

// Replay evaluates the tape at params. When every guard re-evaluates
// to its recorded outcome it fills res with the bit-identical result a
// full evaluation at params would produce and returns true; on a guard
// violation it returns false and res is unspecified.
func (t *Tape) Replay(params []float64, res *Result) bool {
	if len(params) != t.np {
		panic(fmt.Sprintf("analytic: Replay with %d params, tape has %d", len(params), t.np))
	}
	bp := t.bufs.Get().(*[]float64)
	rs := *bp
	copy(rs, params)
	base := t.np + len(t.consts)
	for i, in := range t.instrs {
		a, b := rs[in.a], rs[in.b]
		var v float64
		switch in.op {
		case topAdd:
			v = a + b
		case topSub:
			v = a - b
		case topMul:
			v = a * b
		default:
			v = a / b
		}
		rs[base+i] = v
	}
	ok := t.checkAll(rs)
	if ok {
		res.PredictedSeconds = rs[t.outs[0]]
		res.ScatterSeconds = rs[t.outs[1]]
		res.ComputeSeconds = rs[t.outs[2]]
		res.GatherSeconds = rs[t.outs[3]]
		res.RoundsSimulated = t.roundsSim
		res.RoundsFastForwarded = t.roundsFF
		res.Jumps = t.jumps
	}
	t.bufs.Put(bp)
	return ok
}

// checkAll reports whether every guard holds over the fully computed
// registers rs. With every register present the guard order is free,
// so the guards are checked grouped by kind: each group is a tight
// loop whose branch is taken only on a violation, where walking the
// mixed list would dispatch on every guard's kind.
func (t *Tape) checkAll(rs []float64) bool {
	group := func(k int) []tguard {
		lo := int32(0)
		if k > 0 {
			lo = t.gend[k-1]
		}
		return t.guards[lo:t.gend[k]]
	}
	for _, g := range group(gkey(tgBITS, true)) {
		if math.Float64bits(rs[g.a]) != math.Float64bits(rs[g.b]) {
			return false
		}
	}
	for _, g := range group(gkey(tgBITS, false)) {
		if math.Float64bits(rs[g.a]) == math.Float64bits(rs[g.b]) {
			return false
		}
	}
	for _, g := range group(gkey(tgLT, true)) {
		if !(rs[g.a] < rs[g.b]) {
			return false
		}
	}
	for _, g := range group(gkey(tgLT, false)) {
		if rs[g.a] < rs[g.b] {
			return false
		}
	}
	for _, g := range group(gkey(tgLE, true)) {
		if !(rs[g.a] <= rs[g.b]) {
			return false
		}
	}
	for _, g := range group(gkey(tgLE, false)) {
		if rs[g.a] <= rs[g.b] {
			return false
		}
	}
	for _, g := range group(gkey(tgEQ, true)) {
		if !(rs[g.a] == rs[g.b]) {
			return false
		}
	}
	for _, g := range group(gkey(tgEQ, false)) {
		if rs[g.a] == rs[g.b] {
			return false
		}
	}
	for _, g := range group(gUnary) {
		if !checkGuard(g, rs[g.a], rs[g.b]) {
			return false
		}
	}
	return true
}

// BatchLanes is the lane count of ReplayBatch: points are replayed
// through the tape in groups of 8 so the per-instruction decode cost
// amortizes across lanes. This is what makes grid scans fast — a
// coherent scan replays nearly every batch fully.
const BatchLanes = 8

// ReplayBatch evaluates the tape at BatchLanes parameter points at
// once. points holds the lanes row-major (lane l's parameters are
// points[l*NumParams() : (l+1)*NumParams()]), res receives one Result
// per lane, and ok[l] reports whether lane l passed every guard (its
// res entry is unspecified otherwise). It returns the number of valid
// lanes. Like Replay, a valid lane's Result is bit-identical to a full
// evaluation at that lane's point.
func (t *Tape) ReplayBatch(points []float64, res *[BatchLanes]Result, ok *[BatchLanes]bool) int {
	if len(points) != t.np*BatchLanes {
		panic(fmt.Sprintf("analytic: ReplayBatch with %d floats, want %d lanes x %d params", len(points), BatchLanes, t.np))
	}
	bp := t.bufs8.Get().(*[]float64)
	rs := *bp
	for p := 0; p < t.np; p++ {
		row := rs[p*BatchLanes:]
		for l := 0; l < BatchLanes; l++ {
			row[l] = points[l*t.np+p]
		}
	}
	// One fused sweep: compute instructions in order and check each
	// guard immediately after its highest operand register is written
	// (byReg orders the guards by that register), while the
	// operands are still cache-hot. Guard order is free — the region
	// test is a conjunction.
	var bad uint8
	npc := int32(t.np + len(t.consts))
	base := int(npc) * BatchLanes
	guards := t.guards
	byReg := t.byReg
	ng := len(byReg)
	gi := 0
	for gi < ng {
		g := guards[byReg[gi]]
		if max32(g.a, g.b) >= npc {
			break
		}
		bad |= t.check8(g, rs)
		gi++
	}
	for i, in := range t.instrs {
		a := (*[BatchLanes]float64)(rs[int(in.a)*BatchLanes:])
		b := (*[BatchLanes]float64)(rs[int(in.b)*BatchLanes:])
		d := (*[BatchLanes]float64)(rs[base+i*BatchLanes:])
		switch in.op {
		case topAdd:
			d[0], d[1], d[2], d[3] = a[0]+b[0], a[1]+b[1], a[2]+b[2], a[3]+b[3]
			d[4], d[5], d[6], d[7] = a[4]+b[4], a[5]+b[5], a[6]+b[6], a[7]+b[7]
		case topSub:
			d[0], d[1], d[2], d[3] = a[0]-b[0], a[1]-b[1], a[2]-b[2], a[3]-b[3]
			d[4], d[5], d[6], d[7] = a[4]-b[4], a[5]-b[5], a[6]-b[6], a[7]-b[7]
		case topMul:
			d[0], d[1], d[2], d[3] = a[0]*b[0], a[1]*b[1], a[2]*b[2], a[3]*b[3]
			d[4], d[5], d[6], d[7] = a[4]*b[4], a[5]*b[5], a[6]*b[6], a[7]*b[7]
		default:
			d[0], d[1], d[2], d[3] = a[0]/b[0], a[1]/b[1], a[2]/b[2], a[3]/b[3]
			d[4], d[5], d[6], d[7] = a[4]/b[4], a[5]/b[5], a[6]/b[6], a[7]/b[7]
		}
		dst := npc + int32(i)
		for gi < ng {
			g := guards[byReg[gi]]
			if max32(g.a, g.b) > dst {
				break
			}
			gi++
			ga := (*[BatchLanes]float64)(rs[int(g.a)*BatchLanes:])
			gb := (*[BatchLanes]float64)(rs[int(g.b)*BatchLanes:])
			w := g.want
			// The two hot guard kinds are inlined; the rare ones go
			// through check8.
			if g.op == tgLT {
				if (ga[0] < gb[0]) != w {
					bad |= 1 << 0
				}
				if (ga[1] < gb[1]) != w {
					bad |= 1 << 1
				}
				if (ga[2] < gb[2]) != w {
					bad |= 1 << 2
				}
				if (ga[3] < gb[3]) != w {
					bad |= 1 << 3
				}
				if (ga[4] < gb[4]) != w {
					bad |= 1 << 4
				}
				if (ga[5] < gb[5]) != w {
					bad |= 1 << 5
				}
				if (ga[6] < gb[6]) != w {
					bad |= 1 << 6
				}
				if (ga[7] < gb[7]) != w {
					bad |= 1 << 7
				}
			} else if g.op == tgLE {
				if (ga[0] <= gb[0]) != w {
					bad |= 1 << 0
				}
				if (ga[1] <= gb[1]) != w {
					bad |= 1 << 1
				}
				if (ga[2] <= gb[2]) != w {
					bad |= 1 << 2
				}
				if (ga[3] <= gb[3]) != w {
					bad |= 1 << 3
				}
				if (ga[4] <= gb[4]) != w {
					bad |= 1 << 4
				}
				if (ga[5] <= gb[5]) != w {
					bad |= 1 << 5
				}
				if (ga[6] <= gb[6]) != w {
					bad |= 1 << 6
				}
				if (ga[7] <= gb[7]) != w {
					bad |= 1 << 7
				}
			} else {
				bad |= t.check8(g, rs)
			}
		}
		if bad == (1<<BatchLanes)-1 {
			// Every lane has left the region: the batch is dead, and
			// no lane's outputs will be read.
			for l := range ok {
				ok[l] = false
			}
			t.bufs8.Put(bp)
			return 0
		}
	}
	valid := t.fill8(rs, res, ok, bad)
	t.bufs8.Put(bp)
	return valid
}

// check8 evaluates one guard across the batch lanes, returning the
// mask of lanes whose outcome differs from the recorded one.
func (t *Tape) check8(g tguard, rs []float64) uint8 {
	a := (*[BatchLanes]float64)(rs[int(g.a)*BatchLanes:])
	b := (*[BatchLanes]float64)(rs[int(g.b)*BatchLanes:])
	var bad uint8
	w := g.want
	switch g.op {
	case tgLT:
		if (a[0] < b[0]) != w {
			bad |= 1 << 0
		}
		if (a[1] < b[1]) != w {
			bad |= 1 << 1
		}
		if (a[2] < b[2]) != w {
			bad |= 1 << 2
		}
		if (a[3] < b[3]) != w {
			bad |= 1 << 3
		}
		if (a[4] < b[4]) != w {
			bad |= 1 << 4
		}
		if (a[5] < b[5]) != w {
			bad |= 1 << 5
		}
		if (a[6] < b[6]) != w {
			bad |= 1 << 6
		}
		if (a[7] < b[7]) != w {
			bad |= 1 << 7
		}
	case tgLE:
		if (a[0] <= b[0]) != w {
			bad |= 1 << 0
		}
		if (a[1] <= b[1]) != w {
			bad |= 1 << 1
		}
		if (a[2] <= b[2]) != w {
			bad |= 1 << 2
		}
		if (a[3] <= b[3]) != w {
			bad |= 1 << 3
		}
		if (a[4] <= b[4]) != w {
			bad |= 1 << 4
		}
		if (a[5] <= b[5]) != w {
			bad |= 1 << 5
		}
		if (a[6] <= b[6]) != w {
			bad |= 1 << 6
		}
		if (a[7] <= b[7]) != w {
			bad |= 1 << 7
		}
	case tgEQ:
		if (a[0] == b[0]) != w {
			bad |= 1 << 0
		}
		if (a[1] == b[1]) != w {
			bad |= 1 << 1
		}
		if (a[2] == b[2]) != w {
			bad |= 1 << 2
		}
		if (a[3] == b[3]) != w {
			bad |= 1 << 3
		}
		if (a[4] == b[4]) != w {
			bad |= 1 << 4
		}
		if (a[5] == b[5]) != w {
			bad |= 1 << 5
		}
		if (a[6] == b[6]) != w {
			bad |= 1 << 6
		}
		if (a[7] == b[7]) != w {
			bad |= 1 << 7
		}
	case tgBITS:
		for l := 0; l < BatchLanes; l++ {
			if (math.Float64bits(a[l]) == math.Float64bits(b[l])) != w {
				bad |= 1 << l
			}
		}
	case tgNAN:
		for l := 0; l < BatchLanes; l++ {
			if (a[l] != a[l]) != w {
				bad |= 1 << l
			}
		}
	default: // tgINF
		for l := 0; l < BatchLanes; l++ {
			if math.IsInf(a[l], 1) != w {
				bad |= 1 << l
			}
		}
	}
	return bad
}

// fill8 writes per-lane results for lanes that passed every guard and
// returns the valid-lane count.
func (t *Tape) fill8(rs []float64, res *[BatchLanes]Result, ok *[BatchLanes]bool, bad uint8) int {
	valid := 0
	p0 := (*[BatchLanes]float64)(rs[int(t.outs[0])*BatchLanes:])
	p1 := (*[BatchLanes]float64)(rs[int(t.outs[1])*BatchLanes:])
	p2 := (*[BatchLanes]float64)(rs[int(t.outs[2])*BatchLanes:])
	p3 := (*[BatchLanes]float64)(rs[int(t.outs[3])*BatchLanes:])
	for l := 0; l < BatchLanes; l++ {
		if bad&(1<<l) != 0 {
			ok[l] = false
			continue
		}
		ok[l] = true
		valid++
		res[l] = Result{
			PredictedSeconds:    p0[l],
			ScatterSeconds:      p1[l],
			ComputeSeconds:      p2[l],
			GatherSeconds:       p3[l],
			RoundsSimulated:     t.roundsSim,
			RoundsFastForwarded: t.roundsFF,
			Jumps:               t.jumps,
		}
	}
	return valid
}

func max32(a, b int32) int32 {
	if a < b {
		return b
	}
	return a
}

func checkGuard(g tguard, a, b float64) bool {
	var got bool
	switch g.op {
	case tgLT:
		got = a < b
	case tgLE:
		got = a <= b
	case tgEQ:
		got = a == b
	case tgBITS:
		got = math.Float64bits(a) == math.Float64bits(b)
	case tgNAN:
		got = a != a
	default: // tgINF
		got = math.IsInf(a, 1)
	}
	return got == g.want
}

// GradResult is a valid dual-number replay: the prediction at the
// point plus the exact partial derivatives of PredictedSeconds with
// respect to every free parameter.
type GradResult struct {
	Res Result
	// Grad[i] = ∂PredictedSeconds/∂params[i]. Within a guard region
	// the prediction is a fixed composition of float operations, so
	// these are the derivatives of the exact function Replay computes
	// (up to float rounding in the dual arithmetic itself).
	Grad []float64
}

// Grad evaluates the tape at params with forward-mode dual numbers.
// Validity is decided by the same guards as Replay; on violation it
// returns nil, false.
func (t *Tape) Grad(params []float64) (*GradResult, bool) {
	if len(params) != t.np {
		panic(fmt.Sprintf("analytic: Grad with %d params, tape has %d", len(params), t.np))
	}
	np := t.np
	rs := make([]float64, t.nregs)
	ds := make([]float64, t.nregs*np)
	copy(rs, params)
	copy(rs[np:np+len(t.consts)], t.consts)
	for i := 0; i < np; i++ {
		ds[i*np+i] = 1
	}
	base := np + len(t.consts)
	for i, in := range t.instrs {
		a, b := rs[in.a], rs[in.b]
		da, db := ds[int(in.a)*np:int(in.a)*np+np], ds[int(in.b)*np:int(in.b)*np+np]
		dst := base + i
		dd := ds[dst*np : dst*np+np]
		var v float64
		switch in.op {
		case topAdd:
			v = a + b
			for k := 0; k < np; k++ {
				dd[k] = da[k] + db[k]
			}
		case topSub:
			v = a - b
			for k := 0; k < np; k++ {
				dd[k] = da[k] - db[k]
			}
		case topMul:
			v = a * b
			for k := 0; k < np; k++ {
				dd[k] = da[k]*b + a*db[k]
			}
		default:
			v = a / b
			for k := 0; k < np; k++ {
				dd[k] = (da[k] - v*db[k]) / b
			}
		}
		rs[dst] = v
	}
	for _, g := range t.guards {
		if !checkGuard(g, rs[g.a], rs[g.b]) {
			return nil, false
		}
	}
	out := &GradResult{
		Res: Result{
			PredictedSeconds:    rs[t.outs[0]],
			ScatterSeconds:      rs[t.outs[1]],
			ComputeSeconds:      rs[t.outs[2]],
			GatherSeconds:       rs[t.outs[3]],
			RoundsSimulated:     t.roundsSim,
			RoundsFastForwarded: t.roundsFF,
			Jumps:               t.jumps,
		},
		Grad: make([]float64, np),
	}
	copy(out.Grad, ds[int(t.outs[0])*np:int(t.outs[0])*np+np])
	return out, true
}

// ---------------------------------------------------------------------------
// Symbolic front end

// SymVal is an opaque symbolic float: a free parameter, a constant, or
// an expression over them, built through a Symbolic. The zero value is
// the constant 0.
type SymVal struct{ v sval }

// Symbolic builds symbolic expressions for one CompileTape call. It is
// only valid inside that call's build function.
type Symbolic struct{ rec *recorder }

// Param returns free parameter i (0-based, bound by position to the
// point passed to CompileTape and later to Replay/Grad).
func (s *Symbolic) Param(i int) SymVal {
	if i < 0 || i >= s.rec.nparam {
		panic(fmt.Sprintf("analytic: Param(%d) out of range [0,%d)", i, s.rec.nparam))
	}
	return SymVal{s.rec.param(i)}
}

// Const returns the constant c.
func (s *Symbolic) Const(c float64) SymVal { return SymVal{s.rec.Const(c)} }

// Add returns a + b.
func (s *Symbolic) Add(a, b SymVal) SymVal { return SymVal{s.rec.Add(a.v, b.v)} }

// Sub returns a - b.
func (s *Symbolic) Sub(a, b SymVal) SymVal { return SymVal{s.rec.Sub(a.v, b.v)} }

// Mul returns a * b.
func (s *Symbolic) Mul(a, b SymVal) SymVal { return SymVal{s.rec.Mul(a.v, b.v)} }

// Div returns a / b.
func (s *Symbolic) Div(a, b SymVal) SymVal { return SymVal{s.rec.Div(a.v, b.v)} }

// SymOp mirrors trace.Op with symbolic NS/Bytes. An unset (zero)
// NS/Bytes is the constant 0, exactly like the concrete zero value.
type SymOp struct {
	Count int
	Kind  trace.Kind
	Peer  int
	NS    SymVal
	Bytes SymVal
	Body  []SymOp
}

// SymSpec is a symbolic analytic spec: the structural fields of Spec
// with every float lifted to a SymVal, plus per-link overrides binding
// platform bandwidth/latency to symbolic expressions. Links without an
// override keep their concrete platform values.
//
// Routing stays concrete: platform.Path orders by hop count with
// latency only as a tie-break, so symbolic latency must not change the
// *edge sequence* of any used route. Families whose shortest-hop paths
// are unique (star, cluster and line topologies) satisfy this for any
// latency value; multi-path topologies where the tie-break decides are
// outside the tape model's contract.
type SymSpec struct {
	Hosts     []string
	Submitter string
	Scheme    p2psap.Scheme

	ScatterBytes SymVal
	GatherBytes  SymVal

	// Ranks[r] is rank r's op tree.
	Ranks [][]SymOp

	// Bandwidth/Latency override the named links.
	Bandwidth map[string]SymVal
	Latency   map[string]SymVal
}

func convSymOps(ops []SymOp) []gop[sval] {
	out := make([]gop[sval], len(ops))
	for i, op := range ops {
		out[i] = gop[sval]{
			count: op.Count,
			kind:  op.Kind,
			peer:  op.Peer,
			ns:    op.NS.v,
			bytes: op.Bytes.v,
			body:  convSymOps(op.Body),
		}
	}
	return out
}

// CompileTape records one analytic evaluation of the symbolic spec at
// the given parameter point and compiles it into a guarded tape. The
// build function constructs the spec's symbolic expressions through
// the provided Symbolic; len(point) fixes the parameter count.
//
// The spec must satisfy the analytic tier's structural preconditions
// (op-structured ranks, each with a manageable top-level Repeat,
// pairwise-distinct hosts); cross-rank op mismatches surface as a
// stall error from the recording evaluation.
func CompileTape(plat *platform.Platform, point []float64, build func(*Symbolic) (*SymSpec, error)) (*Tape, error) {
	if plat == nil {
		return nil, fmt.Errorf("analytic: nil platform")
	}
	rec := newRecorder(point)
	ss, err := build(&Symbolic{rec})
	if err != nil {
		return nil, err
	}
	if ss == nil {
		return nil, fmt.Errorf("analytic: build returned nil spec")
	}
	for r, ops := range ss.Ranks {
		found := false
		for _, op := range ops {
			if gManageable(&gop[sval]{count: op.Count, kind: op.Kind, body: convSymOps(op.Body)}) {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analytic: rank %d has no steady-state candidate (top-level Repeat of >= %d iterations with a leading compute and collectives)", r, replay.FFMinIterations)
		}
	}
	var bw, lat map[string]sval
	if len(ss.Bandwidth) > 0 {
		bw = make(map[string]sval, len(ss.Bandwidth))
		for name, v := range ss.Bandwidth {
			bw[name] = v.v
		}
	}
	if len(ss.Latency) > 0 {
		lat = make(map[string]sval, len(ss.Latency))
		for name, v := range ss.Latency {
			lat[name] = v.v
		}
	}
	gm, err := newGModel[sval](rec, plat, bw, lat)
	if err != nil {
		return nil, err
	}
	ranks := make([][]gop[sval], len(ss.Ranks))
	for r := range ss.Ranks {
		ranks[r] = convSymOps(ss.Ranks[r])
	}
	sp := &gspec[sval]{
		hosts:        ss.Hosts,
		submitter:    ss.Submitter,
		scatterBytes: ss.ScatterBytes.v,
		gatherBytes:  ss.GatherBytes.v,
		ranks:        ranks,
	}
	res, err := runGeneric[sval, *recorder](rec, gm, sp)
	if err != nil {
		return nil, err
	}
	return rec.finalize(
		[4]sval{res.predicted, res.scatter, res.compute, res.gather},
		res.roundsSimulated, res.roundsFastForwarded, res.jumps,
	), nil
}
