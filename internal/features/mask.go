package features

import "fmt"

// Compile-time check that the index list matches NumFeatures.
var _ [NumFeatures]struct{} = [numFeaturesCheck]struct{}{}

// Mask selects a subset of the 76 features. It is the genome of the
// genetic algorithm (§4.2: "An individual is encoded as a 76 boolean
// vector").
type Mask struct {
	bits [NumFeatures]bool
}

// AllMask selects every feature.
func AllMask() Mask {
	var m Mask
	for i := range m.bits {
		m.bits[i] = true
	}
	return m
}

// MaskOf selects the given feature indices.
func MaskOf(indices ...int) Mask {
	var m Mask
	for _, i := range indices {
		if i < 0 || i >= NumFeatures {
			panic(fmt.Sprintf("features: index %d out of range", i))
		}
		m.bits[i] = true
	}
	return m
}

// MaskOfNames selects features by catalog name.
func MaskOfNames(names ...string) (Mask, error) {
	var m Mask
	for _, n := range names {
		d, err := ByName(n)
		if err != nil {
			return Mask{}, err
		}
		m.bits[d.Index] = true
	}
	return m, nil
}

// Set sets bit i to v.
func (m *Mask) Set(i int, v bool) { m.bits[i] = v }

// Get reports bit i.
func (m Mask) Get(i int) bool { return m.bits[i] }

// Count returns the number of selected features.
func (m Mask) Count() int {
	n := 0
	for _, b := range m.bits {
		if b {
			n++
		}
	}
	return n
}

// Indices returns the selected feature indices in ascending order.
func (m Mask) Indices() []int {
	var out []int
	for i, b := range m.bits {
		if b {
			out = append(out, i)
		}
	}
	return out
}

// Names returns the selected feature names in catalog order.
func (m Mask) Names() []string {
	var out []string
	for i, b := range m.bits {
		if b {
			out = append(out, catalog[i].Name)
		}
	}
	return out
}

// Apply projects a full feature vector onto the selected subspace.
func (m Mask) Apply(full []float64) []float64 {
	out := make([]float64, 0, m.Count())
	for i, b := range m.bits {
		if b {
			out = append(out, full[i])
		}
	}
	return out
}

// ApplyMatrix projects every row.
func (m Mask) ApplyMatrix(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = m.Apply(r)
	}
	return out
}

// String renders the mask as a 76-character bit string.
func (m Mask) String() string {
	var buf [NumFeatures]byte
	for i, b := range m.bits {
		buf[i] = '0'
		if b {
			buf[i] = '1'
		}
	}
	return string(buf[:])
}

// ParseMask parses the String form.
func ParseMask(s string) (Mask, error) {
	if len(s) != NumFeatures {
		return Mask{}, fmt.Errorf("features: mask length %d, want %d", len(s), NumFeatures)
	}
	var m Mask
	for i := 0; i < NumFeatures; i++ {
		switch s[i] {
		case '1':
			m.bits[i] = true
		case '0':
		default:
			return Mask{}, fmt.Errorf("features: invalid mask character %q", s[i])
		}
	}
	return m, nil
}

// PaperMask returns the feature subset equivalent to the paper's
// Table 2 — the set its genetic algorithm selected on the Numerical
// Recipes training suite:
//
//	Likwid:  floating point rate, L2 bandwidth, L3 miss rate,
//	         memory bandwidth
//	MAQAO:   bytes stored per cycle (L1), data dependency stalls,
//	         estimated IPC (L1), number of FP DIV, number of SD
//	         instructions, pressure on dispatch port P1,
//	         ADD+SUB/MUL ratio, vectorization ratios (FP mul,
//	         other FP+INT, INT)
func PaperMask() Mask {
	return MaskOf(
		FMFLOPS,
		FL2BandwidthMBs,
		FL3MissRate,
		FMemBandwidthMBs,
		FBytesStoredPerCycle,
		FDepStallCycles,
		FEstIPCL1,
		FNumFPDiv,
		FNumSD,
		FPressureP1,
		FAddSubMulRatio,
		FVecRatioMul,
		FVecRatioOther,
		FVecRatioInt,
	)
}

// DefaultMask is the feature subset the pipeline uses by default: the
// paper's Table 2 set plus two features our genetic algorithm keeps
// selecting on this substrate — the indirect-access share (gathers and
// scatters, derivable from MAQAO addressing modes) and the codelet's
// working-set size (the memory-dump size CF reports). The paper's
// physical machines let the Table 2 counters separate cache-resident
// codelets from streaming ones indirectly; on the modeled machines
// these two features carry that information explicitly.
func DefaultMask() Mask {
	m := PaperMask()
	m.Set(FStrideIndirectShare, true)
	m.Set(FWorkingSetBytes, true)
	return m
}

// ArchIndependentMask returns a feature subset in the spirit of Hoste
// & Eeckhout's microarchitecture-independent workload characterization
// — the generalization the paper's §5 proposes for targets outside the
// reference's family (e.g. GPUs). It contains only quantities that do
// not depend on the reference machine's ports, caches or frequency:
// the operation mix, access-pattern shares, loop-nest shape and
// working-set size.
func ArchIndependentMask() Mask {
	return MaskOf(
		// Operation mix (ratios are machine-independent).
		FFAddShare, FFMulShare, FFDivShare, FFSqrtShare, FFSpecialShare,
		FF32ShareDyn,
		// Per-iteration operation counts from the source.
		FLoadsPerIter, FStoresPerIter, FFPOpsPerIter, FIntOpsPerIter,
		FGatherLoadsPerIter, FReductionShare, FRecurrenceShare,
		// Access-pattern and structural descriptors.
		FStrideUnitShare, FStrideConstShare, FStrideIndirectShare,
		FStrideOtherShare, FNumInnerLoops, FNestDepth, FEstInnerTrip,
		FNumStatements, FNumArrays, FDimensionality, FWorkingSetBytes,
	)
}
