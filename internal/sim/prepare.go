package sim

import (
	"fmt"

	"fgbs/internal/arch"
	"fgbs/internal/cache"
	"fgbs/internal/compile"
	"fgbs/internal/ir"
)

// prefetchableStrideBytes bounds the constant stride (absolute value)
// that hardware prefetchers are assumed to track.
const prefetchableStrideBytes = 128

// prepared is a codelet compiled against the machines of one walk and
// one dataset, ready to be walked invocation by invocation. The loop
// nest, its address closures and the variable cells exist once; what
// differs between machines (costs per iteration, latency exposure and
// latency tables) is kept per machine, indexed like machines.
type prepared struct {
	prog     *ir.Program
	codelet  *ir.Codelet
	machines []*arch.Machine
	ds       *Dataset

	// cells maps every variable (params + loop vars) to a storage
	// cell read by compiled closures.
	cells map[string]*int64
	// params lists the parameter cells, the part of an invocation's
	// start state that lives outside the cache. Their order is fixed
	// once built, which is all comparing start states needs.
	params []*int64
	// vary is the cell of the codelet's VaryParam (nil if it has
	// none), and baseVary its declared value.
	vary     *int64
	baseVary int64
	root     []node

	// lat[m][lvl] is machine m's extra load-to-use latency of a hit at
	// its cache level lvl relative to its L1; the last entry is for
	// DRAM.
	lat [][]float64
}

// execState accumulates one invocation's costs on every machine of a
// walk.
type execState struct {
	h *cache.Hierarchy
	t []tally // indexed like prepared.machines
}

// tally is one machine's costs in an execState.
type tally struct {
	computeCycles float64
	exposedLat    float64
	instr         float64

	ops       ir.OpCount
	vecFPOps  float64
	memLoads  float64
	memStores float64
}

// node is one compiled loop.
type node interface {
	run(e *execState)
}

// outerNode drives a non-innermost loop.
type outerNode struct {
	cell   *int64
	lo, hi func() int64
	body   []node
}

func (n *outerNode) run(e *execState) {
	lo, hi := n.lo(), n.hi()
	for i := lo; i < hi; i++ {
		*n.cell = i
		for _, b := range n.body {
			b.run(e)
		}
	}
}

// refPlan is one memory reference of an innermost loop body.
type refPlan struct {
	write bool
	// penalty[m][lvl] is the latency machine m exposes for this
	// reference when its level lvl serves it: its latency penalty
	// (prepared.lat), scaled by how much of it the machine exposes for
	// this access pattern.
	penalty [][]float64

	// Affine path: address = start (computed per loop entry with the
	// inner variable at its lower bound) advanced by strideBytes per
	// iteration.
	affine      bool
	startFn     func() int64 // byte address at inner == lower
	strideBytes int64

	// Indirect path: full byte address from loaded index data.
	addrFn func() int64
}

// innerNode drives an innermost loop: per-iteration compute costs are
// constants from the lowering; memory references stream through the
// cache hierarchy.
type innerNode struct {
	cell    *int64
	lo, hi  func() int64
	refs    []refPlan
	addrBuf []int64
	// affine is set when every ref is affine, the precondition for
	// line-run batching (see the package comment).
	affine bool

	// An iteration's operations and memory references come from the
	// program alone, so they are the same on every machine.
	perIterOps    ir.OpCount
	perIterLoads  float64 // memory references read per iteration
	perIterStores float64 // memory references written per iteration
	// cost[m] is an iteration's compute cost on machine m.
	cost []iterCost
}

// iterCost is one machine's lowering of an innermost-loop iteration.
type iterCost struct {
	cycles, instr, vecFP float64
}

// run walks the loop, skipping line runs (see the package comment).
func (n *innerNode) run(e *execState) {
	lo, hi := n.lo(), n.hi()
	if !n.enter(e, lo, hi) {
		return
	}
	mask := e.h.LineBytes() - 1
	for i := lo; i < hi; i++ {
		*n.cell = i
		allHit := n.affine
		for k := range n.refs {
			rp := &n.refs[k]
			var a int64
			if rp.affine {
				a = n.addrBuf[k]
				n.addrBuf[k] += rp.strideBytes
			} else {
				a = rp.addrFn()
			}
			if lvl := e.h.Access(a, rp.write); lvl > 0 {
				allHit = false
				n.expose(e, k, lvl)
			}
		}
		if allHit {
			// The next j iterations touch the lines this one did: each
			// access is an L1 hit that changes nothing but L1.Hits.
			j := n.lineRun(hi-1-i, mask)
			e.h.Levels[0].Hits += j * int64(len(n.refs))
			for k := range n.refs {
				n.addrBuf[k] += j * n.refs[k].strideBytes
			}
			i += j
		}
	}
	*n.cell = hi - 1
}

// enter charges every machine of e for the iterations [lo, hi) of one
// entry into the loop, and sets each affine ref's first address. It
// reports whether the loop runs at all. Products are rounded before
// they are summed so that no architecture fuses them.
func (n *innerNode) enter(e *execState, lo, hi int64) bool {
	trips := hi - lo
	if trips <= 0 {
		return false
	}
	ft := float64(trips)
	ops := scaleOps(n.perIterOps, trips)
	loads, stores := float64(ft*n.perIterLoads), float64(ft*n.perIterStores)
	for m := range e.t {
		t, c := &e.t[m], &n.cost[m]
		t.computeCycles += float64(ft * c.cycles)
		t.instr += float64(ft * c.instr)
		t.ops = t.ops.Plus(ops)
		t.vecFPOps += float64(ft * c.vecFP)
		t.memLoads += loads
		t.memStores += stores
	}
	*n.cell = lo
	for k := range n.refs {
		if n.refs[k].affine {
			n.addrBuf[k] = n.refs[k].startFn()
		}
	}
	return true
}

// expose charges every machine of e the latency it exposes for ref k's
// access just made, which missed L1 and was served by machine 0's level
// lvl.
func (n *innerNode) expose(e *execState, k, lvl int) {
	penalty := n.refs[k].penalty
	for m := range e.t {
		if m > 0 {
			lvl = e.h.Served(m)
		}
		e.t[m].exposedLat += penalty[m][lvl]
	}
}

// lineRun returns how many further iterations, at most limit, every ref
// stays on the L1 line (mask+1 bytes) it touched in the iteration just
// walked; addrBuf already holds each ref's next address.
func (n *innerNode) lineRun(limit, mask int64) int64 {
	j := limit
	for k := range n.refs {
		s := n.refs[k].strideBytes
		prev := n.addrBuf[k] - s
		switch {
		case s > 0:
			j = min(j, ((prev|mask)-prev)/s)
		case s < 0:
			j = min(j, (prev-prev&^mask)/-s)
		}
	}
	return j
}

func scaleOps(o ir.OpCount, k int64) ir.OpCount {
	return ir.OpCount{
		FAdd: o.FAdd * k, FMul: o.FMul * k, FDiv: o.FDiv * k,
		FSqrt: o.FSqrt * k, FSpecial: o.FSpecial * k,
		IntOps: o.IntOps * k, Loads: o.Loads * k, Stores: o.Stores * k,
		F32Ops: o.F32Ops * k,
	}
}

// prepare lowers codelet c for each of machines ms (in the given
// compilation context) and compiles its loop nest into runnable nodes
// against dataset ds.
func prepare(p *ir.Program, c *ir.Codelet, ms []*arch.Machine, ds *Dataset, inApp bool) (*prepared, error) {
	pr := &prepared{
		prog:     p,
		codelet:  c,
		machines: ms,
		ds:       ds,
		cells:    make(map[string]*int64),
	}
	for name, v := range p.Params {
		cell := new(int64)
		*cell = v
		pr.cells[name] = cell
		pr.params = append(pr.params, cell)
	}
	// Each machine's lowering of every innermost ir loop, and its
	// latency penalty table, indexed by hit level (L1 = 0).
	lowered := make(map[*ir.Loop][]*compile.Loop)
	for _, m := range ms {
		for _, ll := range compile.Lower(p, c, m, inApp).Loops {
			lowered[ll.Context.Loop] = append(lowered[ll.Context.Loop], ll)
		}
		l1 := m.Caches[0].LatencyCycles
		lat := make([]float64, len(m.Caches)+1)
		for i, cl := range m.Caches {
			lat[i] = cl.LatencyCycles - l1
		}
		lat[len(m.Caches)] = m.MemLatencyCycles - l1
		pr.lat = append(pr.lat, lat)
	}

	root, err := pr.buildLoop(c.Loop, lowered)
	if err != nil {
		return nil, fmt.Errorf("sim: codelet %q on %s: %w", c.Name, ms[0].Name, err)
	}
	pr.root = []node{root}
	if cell := pr.cells[c.VaryParam]; cell != nil {
		pr.vary, pr.baseVary = cell, *cell
	}
	return pr, nil
}

// cellFor returns (creating on demand) the storage cell for a loop
// variable.
func (pr *prepared) cellFor(name string) *int64 {
	if c, ok := pr.cells[name]; ok {
		return c
	}
	c := new(int64)
	pr.cells[name] = c
	return c
}

// affineFn compiles an affine form to a closure over cells.
func (pr *prepared) affineFn(a ir.Affine) func() int64 {
	k := a.K
	type term struct {
		cell  *int64
		coeff int64
	}
	var terms []term
	for _, t := range a.Terms {
		terms = append(terms, term{cell: pr.cellFor(t.Var), coeff: t.Coeff})
	}
	switch len(terms) {
	case 0:
		return func() int64 { return k }
	case 1:
		t0 := terms[0]
		return func() int64 { return k + t0.coeff*(*t0.cell) }
	default:
		return func() int64 {
			v := k
			for _, t := range terms {
				v += t.coeff * (*t.cell)
			}
			return v
		}
	}
}

func (pr *prepared) buildLoop(l *ir.Loop, lowered map[*ir.Loop][]*compile.Loop) (node, error) {
	cell := pr.cellFor(l.Var)
	lo := pr.affineFn(l.Lower)
	hi := pr.affineFn(l.Upper)

	if lls, isInner := lowered[l]; isInner {
		in := &innerNode{cell: cell, lo: lo, hi: hi}
		// compile.Lower builds a statement's operations and memory
		// references from the program alone, so the first machine's
		// lowering gives every machine's.
		for _, st := range lls[0].Stmts {
			in.perIterOps = in.perIterOps.Plus(st.Ops)
			for _, mr := range st.Mem {
				rp, err := pr.buildRef(mr, l.Var)
				if err != nil {
					return nil, err
				}
				in.refs = append(in.refs, rp)
				if rp.write {
					in.perIterStores++
				} else {
					in.perIterLoads++
				}
			}
		}
		for _, ll := range lls {
			c := iterCost{cycles: ll.CyclesPerIter, instr: ll.InstrPerIter}
			for _, st := range ll.Stmts {
				if st.Vectorized {
					c.vecFP += float64(st.Ops.FPOps())
				}
			}
			in.cost = append(in.cost, c)
		}
		in.addrBuf = make([]int64, len(in.refs))
		in.affine = true
		for _, rp := range in.refs {
			in.affine = in.affine && rp.affine
		}
		return in, nil
	}

	out := &outerNode{cell: cell, lo: lo, hi: hi}
	for _, s := range l.Body {
		nl, ok := s.(*ir.Loop)
		if !ok {
			// Straight-line statements in non-innermost loops are rare
			// in loop-nest codelets; treat them as part of an implicit
			// single-iteration inner loop is not supported.
			return nil, fmt.Errorf("statement outside innermost loop in %q", pr.codelet.Name)
		}
		child, err := pr.buildLoop(nl, lowered)
		if err != nil {
			return nil, err
		}
		out.body = append(out.body, child)
	}
	return out, nil
}

// buildRef compiles one memory reference.
func (pr *prepared) buildRef(mr compile.MemRef, inner string) (refPlan, error) {
	arr := pr.prog.Array(mr.Ref.Array)
	if arr == nil {
		return refPlan{}, fmt.Errorf("reference to unknown array %q", mr.Ref.Array)
	}
	base := pr.ds.Base(arr.Name)
	elem := arr.DT.Size()

	rp := refPlan{write: mr.Write}

	// Miss-latency exposure: out-of-order cores hide Overlap of it;
	// prefetchers hide PrefetchEff of the rest on sequential streams.
	sequential := mr.Stride.Kind == ir.StrideAffine &&
		absI64(mr.Stride.Bytes) <= prefetchableStrideBytes ||
		mr.Stride.Kind == ir.StrideConst
	for i, m := range pr.machines {
		exposure := 1 - m.Overlap
		if sequential {
			exposure *= 1 - m.PrefetchEff
		}
		penalty := make([]float64, len(pr.lat[i]))
		for lvl, lat := range pr.lat[i] {
			penalty[lvl] = float64(lat * exposure)
		}
		rp.penalty = append(rp.penalty, penalty)
	}

	if lin, ok := pr.prog.LinearIndex(mr.Ref); ok {
		rp.affine = true
		linFn := pr.affineFn(lin)
		rp.startFn = func() int64 { return base + linFn()*elem }
		rp.strideBytes = mr.Stride.Elems * elem
		return rp, nil
	}

	// Indirect reference: compile the full index computation, reading
	// integer array data as needed.
	idxFns := make([]func() int64, len(mr.Ref.Index))
	for d, ix := range mr.Ref.Index {
		fn, err := pr.intExprFn(ix)
		if err != nil {
			return refPlan{}, err
		}
		idxFns[d] = fn
	}
	mults := dimMults(arr, pr.prog.Params)
	rp.addrFn = func() int64 {
		lin := int64(0)
		for d, fn := range idxFns {
			lin += fn() * mults[d]
		}
		return base + lin*elem
	}
	return rp, nil
}

// dimMults returns the row-major multiplier of each dimension.
func dimMults(a *ir.Array, params map[string]int64) []int64 {
	mults := make([]int64, len(a.Dims))
	m := int64(1)
	for d := len(a.Dims) - 1; d >= 0; d-- {
		mults[d] = m
		m *= a.Dims[d].Eval(params)
	}
	return mults
}

// intExprFn compiles an integer expression (used inside indirect
// indices) to a closure. Loads read the dataset's integer contents
// directly; their cache traffic is accounted by their own refPlan
// built from the lowering's memory list.
func (pr *prepared) intExprFn(e ir.Expr) (func() int64, error) {
	switch n := e.(type) {
	case *ir.Const:
		if n.DT != ir.I64 {
			return nil, fmt.Errorf("float constant in index expression")
		}
		v := n.I
		return func() int64 { return v }, nil
	case *ir.Var:
		cell := pr.cellFor(n.Name)
		return func() int64 { return *cell }, nil
	case *ir.Load:
		if n.Ref.DType() != ir.I64 {
			return nil, fmt.Errorf("non-integer load in index expression (array %q)", n.Ref.Array)
		}
		arr := pr.prog.Array(n.Ref.Array)
		data := pr.ds.Ints(n.Ref.Array)
		if data == nil {
			return nil, fmt.Errorf("integer array %q has no data", n.Ref.Array)
		}
		mults := dimMults(arr, pr.prog.Params)
		idxFns := make([]func() int64, len(n.Ref.Index))
		for d, ix := range n.Ref.Index {
			fn, err := pr.intExprFn(ix)
			if err != nil {
				return nil, err
			}
			idxFns[d] = fn
		}
		size := int64(len(data))
		return func() int64 {
			lin := int64(0)
			for d, fn := range idxFns {
				lin += fn() * mults[d]
			}
			if lin < 0 || lin >= size {
				return 0 // out-of-range indirection reads as zero
			}
			return data[lin]
		}, nil
	case *ir.Bin:
		a, err := pr.intExprFn(n.A)
		if err != nil {
			return nil, err
		}
		b, err := pr.intExprFn(n.B)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case ir.OpAdd:
			return func() int64 { return a() + b() }, nil
		case ir.OpSub:
			return func() int64 { return a() - b() }, nil
		case ir.OpMul:
			return func() int64 { return a() * b() }, nil
		case ir.OpDiv:
			return func() int64 {
				d := b()
				if d == 0 {
					return 0
				}
				return a() / d
			}, nil
		case ir.OpMod:
			return func() int64 {
				d := b()
				if d == 0 {
					return 0
				}
				return a() % d
			}, nil
		case ir.OpAnd:
			return func() int64 { return a() & b() }, nil
		case ir.OpShr:
			return func() int64 { return a() >> uint(b()&63) }, nil
		case ir.OpMin:
			return func() int64 { return minI64(a(), b()) }, nil
		case ir.OpMax:
			return func() int64 { return maxI64(a(), b()) }, nil
		default:
			return nil, fmt.Errorf("unsupported integer operator %v in index", n.Op)
		}
	case *ir.Un:
		a, err := pr.intExprFn(n.A)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case ir.OpNeg:
			return func() int64 { return -a() }, nil
		case ir.OpAbs:
			return func() int64 { return absI64(a()) }, nil
		default:
			return nil, fmt.Errorf("unsupported unary operator %v in index", n.Op)
		}
	default:
		return nil, fmt.Errorf("unsupported expression %T in index", e)
	}
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
