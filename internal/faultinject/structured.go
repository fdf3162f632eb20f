package faultinject

import (
	"fmt"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
)

// Structured faults extend the package beyond the paper's one-element,
// one-bit model. Field studies of GPU memory errors (see PAPERS.md) show
// DUEs arriving as multi-bit bursts within a word, whole cache-line or row
// wipes, column failures (one offset dead across every row), and corruption
// of address-generation metadata rather than data. Each class below plans
// deterministically from the Injector's seed, like single-bit trials, so
// campaigns over structured faults stay reproducible.

// FaultClass labels the physical shape of an injected fault.
type FaultClass uint8

const (
	// ClassBit is the paper's model: one uniformly random bit of one
	// uniformly random element.
	ClassBit FaultClass = iota
	// ClassBurst flips several adjacent bits within one element's word —
	// a multi-bit upset confined to a single datum.
	ClassBurst
	// ClassRow wipes a stride-aligned contiguous span of elements (a cache
	// line or DRAM burst), each cell corrupted independently.
	ClassRow
	// ClassColumn kills a fixed offset within every dim-0 row — the classic
	// DRAM column failure: one element per row, the full height of the array.
	ClassColumn
	// ClassMetadata corrupts an allocation descriptor (base address, dtype)
	// instead of data; the corruption itself is applied through
	// registry.Table.CorruptDescriptor, not through this package, because
	// descriptors are not array cells. The label exists so chaos budgets,
	// campaign axes, and storm profiles can account for it uniformly.
	ClassMetadata
)

// String implements fmt.Stringer.
func (c FaultClass) String() string {
	switch c {
	case ClassBit:
		return "bit"
	case ClassBurst:
		return "burst"
	case ClassRow:
		return "row"
	case ClassColumn:
		return "column"
	case ClassMetadata:
		return "metadata"
	default:
		return fmt.Sprintf("FaultClass(%d)", uint8(c))
	}
}

// ParseFaultClass resolves a class by its flag spelling.
func ParseFaultClass(s string) (FaultClass, error) {
	for _, c := range []FaultClass{ClassBit, ClassBurst, ClassRow, ClassColumn, ClassMetadata} {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown fault class %q", s)
}

// StructuredTrial is one planned structured fault: a single physical event
// that corrupts one or more cells.
type StructuredTrial struct {
	// Class is the fault's physical shape.
	Class FaultClass
	// Cells are the per-element corruptions, in ascending offset order for
	// ClassRow/ClassColumn and a single entry for ClassBit/ClassBurst.
	Cells []Trial
}

// Offsets returns the corrupted element offsets, in Cells order.
func (t StructuredTrial) Offsets() []int {
	offs := make([]int, len(t.Cells))
	for i, c := range t.Cells {
		offs[i] = c.Offset
	}
	return offs
}

// defaultBurstWidth is the adjacent-bit span of a ClassBurst fault when the
// caller passes span <= 0.
const defaultBurstWidth = 4

// defaultRowSpan is the cells-per-wipe of a ClassRow fault when the caller
// passes span <= 0 (16 float32 elements = one 64-byte cache line).
const defaultRowSpan = 16

// PlanStructured draws n structured trials of the given class against a.
// span parameterizes the class: the adjacent-bit width for ClassBurst, the
// cells-per-wipe for ClassRow (aligned to a span-multiple linear offset,
// like a cache line); it is ignored for ClassBit and ClassColumn.
// ClassMetadata has no array plan and panics — corrupt descriptors through
// the registry instead. The array is read (for Orig) but not modified.
func (in *Injector) PlanStructured(a *ndarray.Array, class FaultClass, n, span int) []StructuredTrial {
	trials := make([]StructuredTrial, n)
	for i := range trials {
		trials[i] = in.PlanOneStructured(a, class, span)
	}
	return trials
}

// PlanOneStructured draws a single structured trial; see PlanStructured.
func (in *Injector) PlanOneStructured(a *ndarray.Array, class FaultClass, span int) StructuredTrial {
	switch class {
	case ClassBit:
		return StructuredTrial{Class: class, Cells: []Trial{in.PlanOne(a)}}
	case ClassBurst:
		if span <= 0 {
			span = defaultBurstWidth
		}
		bits := in.dtype.Bits()
		off := in.rng.Intn(a.Len())
		bit := in.rng.Intn(bits)
		if bit+span > bits {
			bit = bits - span
			if bit < 0 {
				bit = 0
			}
		}
		orig := a.AtOffset(off)
		return StructuredTrial{Class: class, Cells: []Trial{{
			Offset:    off,
			Bit:       bit,
			Width:     span,
			Orig:      orig,
			Corrupted: bitflip.FlipBurst(orig, in.dtype, bit, span),
		}}}
	case ClassRow:
		if span <= 0 {
			span = defaultRowSpan
		}
		if span > a.Len() {
			span = a.Len()
		}
		start := span * in.rng.Intn((a.Len()+span-1)/span)
		end := start + span
		if end > a.Len() {
			end = a.Len()
		}
		cells := make([]Trial, 0, end-start)
		for off := start; off < end; off++ {
			cells = append(cells, in.planCell(a, off))
		}
		return StructuredTrial{Class: class, Cells: cells}
	case ClassColumn:
		rowLen := a.Len() / a.Dim(0)
		col := in.rng.Intn(rowLen)
		cells := make([]Trial, 0, a.Dim(0))
		for r := 0; r < a.Dim(0); r++ {
			cells = append(cells, in.planCell(a, r*rowLen+col))
		}
		return StructuredTrial{Class: class, Cells: cells}
	default:
		panic(fmt.Sprintf("faultinject: no array plan for fault class %v", class))
	}
}

// planCell draws one cell corruption at a fixed offset (uniform bit).
func (in *Injector) planCell(a *ndarray.Array, off int) Trial {
	bit := in.rng.Intn(in.dtype.Bits())
	orig := a.AtOffset(off)
	return Trial{Offset: off, Bit: bit, Orig: orig, Corrupted: bitflip.Flip(orig, in.dtype, bit)}
}

// ApplyStructured writes every cell's corrupted value into the array.
func ApplyStructured(a *ndarray.Array, t StructuredTrial) {
	for _, c := range t.Cells {
		Apply(a, c)
	}
}

// RevertStructured restores every cell's original value.
func RevertStructured(a *ndarray.Array, t StructuredTrial) {
	for _, c := range t.Cells {
		Revert(a, c)
	}
}
