package ir

import (
	"fmt"
	"sort"
)

// ExprAffine attempts to express e as an integer affine form in loop
// variables and parameters. It returns ok=false when e involves a load
// (indirect indexing, e.g. CG's gather through a column-index array),
// a non-affine operator, or a product of two variables.
func ExprAffine(e Expr) (Affine, bool) {
	switch n := e.(type) {
	case *Const:
		if n.DT != I64 {
			return Affine{}, false
		}
		return AC(n.I), true
	case *Var:
		return AV(n.Name), true
	case *Bin:
		a, okA := ExprAffine(n.A)
		b, okB := ExprAffine(n.B)
		switch n.Op {
		case OpAdd:
			if okA && okB {
				return a.Plus(b), true
			}
		case OpSub:
			if okA && okB {
				return a.Minus(b), true
			}
		case OpMul:
			if okA && okB {
				if a.IsConst() {
					return b.ScaleK(a.K), true
				}
				if b.IsConst() {
					return a.ScaleK(b.K), true
				}
			}
		}
		return Affine{}, false
	default:
		return Affine{}, false
	}
}

// StrideKind classifies a memory reference's innermost-loop behavior,
// the information behind Table 3's "Stride" column.
type StrideKind uint8

const (
	// StrideConst means the innermost variable does not appear: the
	// reference hits a constant location each iteration (stride 0,
	// e.g. a reduction accumulator kept in memory).
	StrideConst StrideKind = iota
	// StrideAffine means the linearized index is affine in the
	// innermost variable; Elems holds the per-iteration distance in
	// elements (1 = sequential, -1 = descending, LDA = column walk).
	StrideAffine
	// StrideIndirect means the address depends on loaded data
	// (gather/scatter).
	StrideIndirect
)

// Stride describes one reference's access pattern with respect to an
// innermost loop.
type Stride struct {
	Kind StrideKind
	// Elems is the signed per-iteration element distance for
	// StrideAffine.
	Elems int64
	// Bytes is Elems scaled by the element size.
	Bytes int64
}

// String renders the stride the way Table 3 does.
func (s Stride) String() string {
	switch s.Kind {
	case StrideConst:
		return "0"
	case StrideIndirect:
		return "indirect"
	default:
		return fmt.Sprintf("%d", s.Elems)
	}
}

// RefStride computes the stride of reference r with respect to loop
// variable inner, under the program's array declarations and parameter
// bindings (needed to resolve symbolic leading dimensions).
func (p *Program) RefStride(r *Ref, inner string) Stride {
	a := p.arrayIdx[r.Array]
	if a == nil {
		panic(fmt.Sprintf("ir: stride of undeclared array %q", r.Array))
	}
	// Linearize row-major: lin = sum_d idx_d * prod(dims after d).
	elemStride := int64(0)
	mult := int64(1)
	for d := len(r.Index) - 1; d >= 0; d-- {
		aff, ok := ExprAffine(r.Index[d])
		if !ok {
			return Stride{Kind: StrideIndirect}
		}
		elemStride += aff.Coeff(inner) * mult
		mult *= a.Dims[d].Eval(p.Params)
	}
	if elemStride == 0 {
		return Stride{Kind: StrideConst}
	}
	return Stride{Kind: StrideAffine, Elems: elemStride, Bytes: elemStride * a.DT.Size()}
}

// AccessSummary aggregates the reference behavior of one innermost
// loop body: every distinct load/store with its stride.
type AccessSummary struct {
	Loads  []RefAccess
	Stores []RefAccess
}

// RefAccess pairs a reference with its innermost stride.
type RefAccess struct {
	Ref    *Ref
	Stride Stride
}

// Accesses summarizes the memory references of the innermost loop lc.
// Scalar references (0-dim arrays) that the lowering pass register-
// allocates are still reported here; consumers filter as needed.
func (p *Program) Accesses(lc *LoopContext) AccessSummary {
	var sum AccessSummary
	inner := lc.Loop.Var
	for _, s := range lc.Loop.Body {
		a, ok := s.(*Assign)
		if !ok {
			continue
		}
		sum.Stores = append(sum.Stores, RefAccess{Ref: a.LHS, Stride: p.RefStride(a.LHS, inner)})
		WalkExpr(a.RHS, func(e Expr) {
			if ld, ok := e.(*Load); ok {
				sum.Loads = append(sum.Loads, RefAccess{Ref: ld.Ref, Stride: p.RefStride(ld.Ref, inner)})
			}
		})
	}
	return sum
}

// StrideSet returns the distinct stride descriptions of the loop's
// references, ordered like Table 3 renders them (e.g. "0 & 1 & -1").
func (p *Program) StrideSet(lc *LoopContext) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(s Stride) {
		str := s.String()
		if !seen[str] {
			seen[str] = true
			out = append(out, str)
		}
	}
	sum := p.Accesses(lc)
	for _, a := range sum.Loads {
		add(a.Stride)
	}
	for _, a := range sum.Stores {
		add(a.Stride)
	}
	sort.Strings(out)
	return out
}

// DepClass classifies one assignment's dependence structure with
// respect to the innermost loop, which decides vectorization legality.
type DepClass uint8

const (
	// DepNone: no loop-carried dependence; freely vectorizable.
	DepNone DepClass = iota
	// DepReduction: the statement accumulates into a location that
	// does not move with the innermost variable (sum/dot patterns).
	// Vectorizable with a parallel reduction under -O3 semantics.
	DepReduction
	// DepRecurrence: the statement reads a value written by an earlier
	// iteration at a different offset (first-order recurrences such as
	// tridag). Not vectorizable.
	DepRecurrence
)

// String names the class.
func (d DepClass) String() string {
	switch d {
	case DepNone:
		return "none"
	case DepReduction:
		return "reduction"
	case DepRecurrence:
		return "recurrence"
	default:
		return fmt.Sprintf("dep(%d)", uint8(d))
	}
}

// maxVectorDepDistance is the largest forward dependence distance (in
// innermost iterations) that still inhibits vectorization: beyond it,
// a vector block never spans the dependence.
const maxVectorDepDistance = 16

// ClassifyDep analyzes one assignment inside innermost loop variable
// inner.
//
// Same-array reads are dependence-tested against the write along the
// innermost dimension only: a true dependence carried by an *outer*
// loop (e.g. row i reading row i-1 while the inner loop sweeps
// columns) does not inhibit vectorizing the inner loop. The test is
// conservative where it cannot decide (indirect indices, mismatched
// inner strides, symbolic distances).
func (p *Program) ClassifyDep(a *Assign, inner string) DepClass {
	writeStride := p.RefStride(a.LHS, inner)
	writeAff, writeAffOK := p.linearAffine(a.LHS)

	sameArrayRead := false
	conflict := false
	WalkExpr(a.RHS, func(e Expr) {
		ld, ok := e.(*Load)
		if !ok || ld.Ref.Array != a.LHS.Array {
			return
		}
		sameArrayRead = true
		readAff, readOK := p.linearAffine(ld.Ref)
		if !readOK || !writeAffOK {
			conflict = true
			return
		}
		if readAff.Equal(writeAff) {
			return // same location: in-place update
		}
		sW := writeAff.Coeff(inner)
		sR := readAff.Coeff(inner)
		if sW != sR {
			// Crossing strides (e.g. ascending write, descending
			// read): assume a carried dependence.
			conflict = true
			return
		}
		// The distance is inner-invariant; evaluate it under the
		// program parameters with outer variables at zero (outer
		// variables only shift both sides equally when they appear
		// with equal coefficients; unequal coefficients evaluate to
		// an outer-dependent distance, handled conservatively below).
		diff := writeAff.Minus(readAff)
		env := make(map[string]int64, len(p.Params)+4)
		for k, v := range p.Params {
			env[k] = v
		}
		for _, v := range diff.Vars() {
			if _, bound := env[v]; !bound {
				if v == inner {
					// Cannot happen (equal inner coefficients), but
					// stay safe.
					conflict = true
					return
				}
				env[v] = 0
			}
		}
		dist := diff.Eval(env)
		switch {
		case sW == 0:
			// Inner-invariant location read at a different
			// inner-invariant location: no inner-carried dependence.
		case dist%sW != 0:
			// The read walks a lattice the write never touches in
			// this sweep.
		case dist/sW > 0 && dist/sW <= maxVectorDepDistance:
			// True dependence within vector reach: iteration i reads
			// what iteration i - dist/sW wrote.
			conflict = true
		default:
			// Anti-dependences (negative distance) and far-away
			// forward dependences do not inhibit vectorization.
		}
	})

	switch {
	case !sameArrayRead:
		// Writes that scatter through data-dependent indices
		// (histogram updates) could collide across iterations; treat
		// indirect stores that also read other arrays as vectorizable
		// only when the write is affine.
		if writeStride.Kind == StrideIndirect {
			return DepRecurrence
		}
		return DepNone
	case writeStride.Kind == StrideConst:
		// Accumulator that does not move with the loop: reduction.
		return DepReduction
	case conflict:
		return DepRecurrence
	default:
		// Reads the same location it writes (e.g. a[i] = a[i]*2).
		return DepNone
	}
}

// LinearIndex linearizes a reference into a single affine element
// index over loop variables and parameters (row-major); ok=false for
// indirect references.
func (p *Program) LinearIndex(r *Ref) (Affine, bool) { return p.linearAffine(r) }

// linearAffine linearizes a reference into a single affine form over
// all variables; ok=false for indirect references.
func (p *Program) linearAffine(r *Ref) (Affine, bool) {
	a := p.arrayIdx[r.Array]
	if a == nil {
		return Affine{}, false
	}
	lin := AC(0)
	mult := int64(1)
	for d := len(r.Index) - 1; d >= 0; d-- {
		aff, ok := ExprAffine(r.Index[d])
		if !ok {
			return Affine{}, false
		}
		lin = lin.Plus(aff.ScaleK(mult))
		mult *= a.Dims[d].Eval(p.Params)
	}
	return lin, true
}

// TripCount evaluates the loop's iteration count under env, clamped at
// zero.
func (l *Loop) TripCount(env map[string]int64) int64 {
	n := l.Upper.Eval(env) - l.Lower.Eval(env)
	if n < 0 {
		return 0
	}
	return n
}

// EstTrip statically estimates the innermost loop's trip count under
// params, the weight Step B gives each innermost loop: the enclosing
// loop variables are first bound to 0 to get a scale, then to half
// that trip as a midpoint stand-in for triangular nests. The estimate
// is clamped to at least 1.
func (lc *LoopContext) EstTrip(params map[string]int64) float64 {
	env := make(map[string]int64, len(params)+len(lc.Outer))
	for k, v := range params {
		env[k] = v
	}
	for _, v := range lc.Outer {
		env[v] = 0
	}
	trip := lc.Loop.TripCount(env)
	if len(lc.Outer) > 0 {
		for _, v := range lc.Outer {
			env[v] = trip / 2
		}
		trip = lc.Loop.TripCount(env)
	}
	if trip < 1 {
		trip = 1
	}
	return float64(trip)
}

// OpCount tallies the operation mix of a single evaluation of e.
type OpCount struct {
	FAdd, FMul, FDiv int64 // floating-point add/sub/min/max, mul, div
	FSqrt            int64 // square roots
	FSpecial         int64 // exp/log/sin/cos
	IntOps           int64 // integer ALU operations
	Loads, Stores    int64 // memory references (before register allocation)
	F32Ops           int64 // portion of FP ops that are single precision
}

// Plus returns the element-wise sum.
func (o OpCount) Plus(b OpCount) OpCount {
	return OpCount{
		FAdd: o.FAdd + b.FAdd, FMul: o.FMul + b.FMul, FDiv: o.FDiv + b.FDiv,
		FSqrt: o.FSqrt + b.FSqrt, FSpecial: o.FSpecial + b.FSpecial,
		IntOps: o.IntOps + b.IntOps,
		Loads:  o.Loads + b.Loads, Stores: o.Stores + b.Stores, F32Ops: o.F32Ops + b.F32Ops,
	}
}

// FPOps returns the total floating-point operation count.
func (o OpCount) FPOps() int64 { return o.FAdd + o.FMul + o.FDiv + o.FSqrt + o.FSpecial }

// CountOps tallies the operation mix of one evaluation of e, including
// index arithmetic (counted as integer ops).
func CountOps(e Expr) OpCount {
	var oc OpCount
	WalkExpr(e, func(n Expr) {
		switch x := n.(type) {
		case *Bin:
			if x.DType().IsFloat() {
				switch x.Op {
				case OpAdd, OpSub, OpMin, OpMax:
					oc.FAdd++
				case OpMul:
					oc.FMul++
				case OpDiv:
					oc.FDiv++
				}
				if x.DType() == F32 {
					oc.F32Ops++
				}
			} else {
				oc.IntOps++
			}
		case *Un:
			switch x.Op {
			case OpSqrt:
				oc.FSqrt++
				if x.DType() == F32 {
					oc.F32Ops++
				}
			case OpExp, OpLog, OpSin, OpCos:
				oc.FSpecial++
				if x.DType() == F32 {
					oc.F32Ops++
				}
			case OpNeg, OpAbs:
				if x.DType().IsFloat() {
					oc.FAdd++
					if x.DType() == F32 {
						oc.F32Ops++
					}
				} else {
					oc.IntOps++
				}
			case OpCvtIF, OpCvtFI, OpWiden, OpNarrow:
				// Conversions occupy an issue slot; modeled as integer
				// ALU work.
				oc.IntOps++
			}
		case *Load:
			oc.Loads++
		}
	})
	return oc
}

// CountAssign tallies an assignment: RHS ops plus the store.
func CountAssign(a *Assign) OpCount {
	oc := CountOps(a.RHS)
	oc.Stores++
	return oc
}
