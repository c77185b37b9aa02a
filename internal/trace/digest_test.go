package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// FormatExecutionVerbose additionally shows a digest of every local state.
func FormatExecutionVerbose(e *core.Execution, localWidth int) string {
	var b strings.Builder
	writeState := func(label string, x core.State) {
		fmt.Fprintf(&b, "%s %s\n", label, FormatState(x))
		for i := 0; i < x.N(); i++ {
			fmt.Fprintf(&b, "    p%d: %s\n", i, digest(x.Local(i), localWidth))
		}
	}
	writeState("layer 0:", e.Init)
	for i, step := range e.Steps {
		writeState(fmt.Sprintf("layer %d: %s", i+1, step.Action), step.State)
	}
	return b.String()
}

// digest shortens a canonical state string for display. Widths too small
// to hold the "..." ellipsis degrade to a plain prefix cut.
func digest(s string, max int) string {
	if len(s) <= max {
		return s
	}
	if max <= 3 {
		if max < 0 {
			max = 0
		}
		return s[:max]
	}
	return s[:max-3] + "..."
}

func TestDigestClampsSmallWidths(t *testing.T) {
	const s = "abcdefghij"
	cases := []struct {
		max  int
		want string
	}{
		{-1, ""}, // previously panicked
		{0, ""},  // previously panicked
		{1, "a"},
		{2, "ab"},
		{3, "abc"},
		{4, "a..."},
		{7, "abcd..."},
		{len(s), s},
		{len(s) + 5, s},
	}
	for _, c := range cases {
		if got := digest(s, c.max); got != c.want {
			t.Errorf("digest(%q, %d) = %q, want %q", s, c.max, got, c.want)
		}
	}
}

func TestDigestShortStringUnchanged(t *testing.T) {
	// Strings within the width are returned verbatim, even at tiny widths.
	if got := digest("ab", 2); got != "ab" {
		t.Errorf("digest(ab, 2) = %q", got)
	}
	if got := digest("", 0); got != "" {
		t.Errorf("digest of empty = %q", got)
	}
}

func TestDigestNeverPanicsAcrossWidths(t *testing.T) {
	s := strings.Repeat("x", 64)
	for max := -4; max <= len(s)+4; max++ {
		got := digest(s, max)
		if len(got) > len(s)+3 {
			t.Fatalf("digest width %d returned %d bytes", max, len(got))
		}
	}
}
