// Package trace renders executions and state differences in human-readable
// form: witness runs from the certifier, bivalent chains, and
// indistinguishability diffs ("these two states agree modulo process j").
package trace

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// FormatState renders one state: per-process decision and failure flags.
func FormatState(x core.State) string {
	var b strings.Builder
	for i := 0; i < x.N(); i++ {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "p%d", i)
		if x.FailedAt(i) {
			b.WriteString("†")
		}
		if v, ok := x.Decided(i); ok {
			fmt.Fprintf(&b, "=%d", v)
		} else {
			b.WriteString("=⊥")
		}
	}
	return b.String()
}

// FormatExecution renders an execution layer by layer: the action taken
// and the resulting decision vector.
func FormatExecution(e *core.Execution) string {
	var b strings.Builder
	fmt.Fprintf(&b, "layer 0: %s\n", FormatState(e.Init))
	for i, step := range e.Steps {
		fmt.Fprintf(&b, "layer %d: %-14s %s\n", i+1, step.Action, FormatState(step.State))
	}
	return b.String()
}

// Diff describes how two states differ: which processes' locals differ,
// whether the environments differ, and — when the states are similar — the
// witnessing process.
type Diff struct {
	EnvDiffers  bool
	LocalDiffer []int
	SimilarVia  int // witnessing j if Similar, else -1
}

// Compare computes the Diff of two states of equal size.
func Compare(x, y core.State) Diff {
	d := Diff{EnvDiffers: x.EnvKey() != y.EnvKey(), SimilarVia: -1}
	for i := 0; i < x.N() && i < y.N(); i++ {
		if x.Local(i) != y.Local(i) {
			d.LocalDiffer = append(d.LocalDiffer, i)
		}
	}
	if j, ok := core.Similar(x, y); ok {
		d.SimilarVia = j
	}
	return d
}

// String implements fmt.Stringer.
func (d Diff) String() string {
	var parts []string
	if d.EnvDiffers {
		parts = append(parts, "env differs")
	} else {
		parts = append(parts, "env equal")
	}
	if len(d.LocalDiffer) == 0 {
		parts = append(parts, "all locals equal")
	} else {
		parts = append(parts, fmt.Sprintf("locals differ at %v", d.LocalDiffer))
	}
	if d.SimilarVia >= 0 {
		parts = append(parts, fmt.Sprintf("similar modulo %d", d.SimilarVia))
	} else {
		parts = append(parts, "not similar")
	}
	return strings.Join(parts, "; ")
}
