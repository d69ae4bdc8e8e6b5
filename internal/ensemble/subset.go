// Package ensemble assembles base models into a deep ensemble: model-subset
// bitmasks, aggregation modules (voting, weighted averaging, stacking), full
// and partial prediction, and the agreement scoring that treats the full
// ensemble's output as ground truth (the paper's evaluation convention).
package ensemble

import (
	"math/bits"
	"strconv"
	"strings"
)

// Subset is a set of base-model indices encoded as a bitmask; bit k set
// means model k participates. The deep-ensemble sizes in the paper are
// tiny (2-6), so 16 bits is plenty.
type Subset uint16

// MaxModels is the largest supported ensemble size.
const MaxModels = 16

// Empty is the subset containing no models (i.e. "skip this query").
const Empty Subset = 0

// Single returns the subset containing only model k.
func Single(k int) Subset {
	if k < 0 || k >= MaxModels {
		panic("ensemble: model index out of range")
	}
	return 1 << uint(k)
}

// Full returns the subset of all m models.
func Full(m int) Subset {
	if m < 0 || m > MaxModels {
		panic("ensemble: ensemble size out of range")
	}
	return Subset(1<<uint(m)) - 1
}

// Contains reports whether model k is in s.
func (s Subset) Contains(k int) bool { return s&(1<<uint(k)) != 0 }

// With returns s with model k added.
func (s Subset) With(k int) Subset { return s | Single(k) }

// Without returns s with model k removed.
func (s Subset) Without(k int) Subset { return s &^ Single(k) }

// Size returns the number of models in s.
func (s Subset) Size() int { return bits.OnesCount16(uint16(s)) }

// Models returns the sorted indices of the models in s.
func (s Subset) Models() []int {
	out := make([]int, 0, s.Size())
	for k := 0; k < MaxModels; k++ {
		if s.Contains(k) {
			out = append(out, k)
		}
	}
	return out
}

// String renders the subset as "{0,2}".
func (s Subset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, k := range s.Models() {
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(k))
		first = false
	}
	b.WriteByte('}')
	return b.String()
}

// AllSubsets returns every non-empty subset of m models, ordered by
// ascending bitmask value.
func AllSubsets(m int) []Subset {
	full := int(Full(m))
	out := make([]Subset, 0, full)
	for s := 1; s <= full; s++ {
		out = append(out, Subset(s))
	}
	return out
}

// SubsetsOfSize returns all subsets of m models with exactly size members.
func SubsetsOfSize(m, size int) []Subset {
	var out []Subset
	for _, s := range AllSubsets(m) {
		if s.Size() == size {
			out = append(out, s)
		}
	}
	return out
}
