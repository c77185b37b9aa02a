package trace_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/trace"
	"repro/internal/valence"
)

func TestFormatExecution(t *testing.T) {
	const n, tt = 3, 1
	p := protocols.FloodSet{Rounds: tt}
	m := syncmp.NewSt(p, n, tt)
	w, err := valence.Certify(nil, m, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := trace.FormatExecution(w.Exec)
	if !strings.Contains(got, "layer 0:") {
		t.Errorf("missing layer 0 in:\n%s", got)
	}
	if !strings.Contains(got, "=⊥") {
		t.Errorf("expected undecided markers in:\n%s", got)
	}
	verbose := trace.FormatExecutionVerbose(w.Exec, 40)
	if !strings.Contains(verbose, "p0:") {
		t.Errorf("verbose output missing local digests:\n%s", verbose)
	}
}

func TestFormatStateFlags(t *testing.T) {
	p := protocols.FloodSet{Rounds: 1}
	m := syncmp.NewSt(p, 3, 1)
	x := m.Initial([]int{0, 1, 1})
	var y core.State
	for _, s := range m.Successors(x) {
		if s.Action == "(0,[3])" {
			y = s.State
		}
	}
	s := trace.FormatState(y)
	if !strings.Contains(s, "p0†") {
		t.Errorf("failed marker missing in %q", s)
	}
}

func TestCompare(t *testing.T) {
	p := protocols.FloodSet{Rounds: 2}
	m := syncmp.NewSt(p, 3, 1)
	x := m.Initial([]int{0, 0, 0})
	y := m.Initial([]int{0, 0, 1})
	d := trace.Compare(x, y)
	if d.EnvDiffers {
		t.Error("initial environments must be equal")
	}
	if len(d.LocalDiffer) != 1 || d.LocalDiffer[0] != 2 {
		t.Errorf("LocalDiffer = %v, want [2]", d.LocalDiffer)
	}
	if d.SimilarVia != 2 {
		t.Errorf("SimilarVia = %d, want 2", d.SimilarVia)
	}
	if !strings.Contains(d.String(), "similar modulo 2") {
		t.Errorf("String() = %q", d.String())
	}
	// Self-compare.
	self := trace.Compare(x, x)
	if self.EnvDiffers || len(self.LocalDiffer) != 0 || self.SimilarVia < 0 {
		t.Errorf("self compare = %+v", self)
	}
}
