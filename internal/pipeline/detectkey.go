package pipeline

import (
	"encoding/binary"
	"fmt"
	"math"

	"fgbs/internal/ir"
	"fgbs/internal/stage"
)

// detectKey fingerprints Step A's input: everything about each program
// that Detect or profiling reads, walked straight into the key buffer.
// The walk covers, per program:
//   - its name, uncovered fraction and parameters (sorted by name);
//   - its arrays in declaration order: name, element type, dimensions,
//     and the integer-init kind and bound;
//   - its codelets: name, app, provenance, pattern, invocations,
//     dataset variation and the parameter it scales, the warm and
//     context-sensitive flags, and the loop nest — loops with bounds,
//     assignments with their vectorization hint, every expression.
//
// The encoding is compact and injective: one tag byte per node,
// varints for integers and counts, length-prefixed names, and floats
// by their exact bit pattern. It is a few bytes per IR node, where
// KeyBuilder's own 9-byte field headers per value would be several
// times the size.
func detectKey(progs []*ir.Program) stage.Key {
	return stage.NewKey("detect", detectStageVersion).
		Append(func(dst []byte) []byte {
			dst = binary.AppendUvarint(dst, uint64(len(progs)))
			for _, p := range progs {
				dst = appendProgram(dst, p)
			}
			return dst
		}).
		Key()
}

// Node tags. Statement and expression tags share one space so no two
// node kinds encode alike.
const (
	tagAssign byte = iota + 1
	tagLoop
	tagConst
	tagVar
	tagLoad
	tagBin
	tagUn
)

func appendProgram(dst []byte, p *ir.Program) []byte {
	dst = appendStr(dst, p.Name)
	dst = appendFloat(dst, p.UncoveredFraction)
	names := p.SortedParamNames()
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = appendStr(dst, name)
		dst = binary.AppendVarint(dst, p.Params[name])
	}
	arrays := p.Arrays()
	dst = binary.AppendUvarint(dst, uint64(len(arrays)))
	for _, a := range arrays {
		dst = appendStr(dst, a.Name)
		dst = append(dst, byte(a.DT))
		dst = binary.AppendUvarint(dst, uint64(len(a.Dims)))
		for _, d := range a.Dims {
			dst = appendAffine(dst, d)
		}
		dst = append(dst, byte(a.Init.Kind))
		dst = appendAffine(dst, a.Init.Bound)
	}
	dst = binary.AppendUvarint(dst, uint64(len(p.Codelets)))
	for _, c := range p.Codelets {
		dst = appendStr(dst, c.Name)
		dst = appendStr(dst, c.App)
		dst = appendStr(dst, c.SourceRef)
		dst = appendStr(dst, c.Pattern)
		dst = binary.AppendVarint(dst, int64(c.Invocations))
		dst = appendFloat(dst, c.DatasetVariation)
		dst = appendStr(dst, c.VaryParam)
		dst = appendBool(dst, c.WarmInApp)
		dst = appendBool(dst, c.ContextSensitive)
		dst = appendLoop(dst, c.Loop)
	}
	return dst
}

func appendLoop(dst []byte, l *ir.Loop) []byte {
	dst = append(dst, tagLoop)
	dst = appendStr(dst, l.Var)
	dst = appendAffine(dst, l.Lower)
	dst = appendAffine(dst, l.Upper)
	dst = binary.AppendUvarint(dst, uint64(len(l.Body)))
	for _, s := range l.Body {
		switch st := s.(type) {
		case *ir.Loop:
			dst = appendLoop(dst, st)
		case *ir.Assign:
			dst = append(dst, tagAssign, byte(st.Hint))
			dst = appendRef(dst, st.LHS)
			dst = appendExpr(dst, st.RHS)
		default:
			panic(fmt.Sprintf("pipeline: detect key: unknown statement %T", s))
		}
	}
	return dst
}

func appendRef(dst []byte, r *ir.Ref) []byte {
	dst = appendStr(dst, r.Array)
	dst = binary.AppendUvarint(dst, uint64(len(r.Index)))
	for _, ix := range r.Index {
		dst = appendExpr(dst, ix)
	}
	return dst
}

func appendExpr(dst []byte, e ir.Expr) []byte {
	switch n := e.(type) {
	case *ir.Const:
		dst = append(dst, tagConst, byte(n.DT))
		dst = appendFloat(dst, n.F)
		return binary.AppendVarint(dst, n.I)
	case *ir.Var:
		return appendStr(append(dst, tagVar), n.Name)
	case *ir.Load:
		return appendRef(append(dst, tagLoad), n.Ref)
	case *ir.Bin:
		dst = appendExpr(append(dst, tagBin, byte(n.Op)), n.A)
		return appendExpr(dst, n.B)
	case *ir.Un:
		return appendExpr(append(dst, tagUn, byte(n.Op), byte(n.To)), n.A)
	default:
		panic(fmt.Sprintf("pipeline: detect key: unknown expression %T", e))
	}
}

func appendAffine(dst []byte, a ir.Affine) []byte {
	dst = binary.AppendVarint(dst, a.K)
	dst = binary.AppendUvarint(dst, uint64(len(a.Terms)))
	for _, t := range a.Terms {
		dst = appendStr(dst, t.Var)
		dst = binary.AppendVarint(dst, t.Coeff)
	}
	return dst
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
