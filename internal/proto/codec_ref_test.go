package proto

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The straightforward codec the allocation-light one replaced, kept as the
// reference it must match: the same accepted and rejected inputs, the same
// errors, and byte-identical encodings.

func refJoin(fields ...string) string {
	var b strings.Builder
	for _, f := range fields {
		b.WriteString(strconv.Itoa(len(f)))
		b.WriteByte(':')
		b.WriteString(f)
	}
	return b.String()
}

func refSplit(s string) ([]string, error) {
	var fields []string
	for len(s) > 0 {
		colon := strings.IndexByte(s, ':')
		if colon < 0 {
			return nil, fmt.Errorf("missing length prefix in %q: %w", s, ErrBadEncoding)
		}
		n, err := strconv.Atoi(s[:colon])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad length prefix in %q: %w", s, ErrBadEncoding)
		}
		s = s[colon+1:]
		if len(s) < n {
			return nil, fmt.Errorf("truncated field in %q: %w", s, ErrBadEncoding)
		}
		fields = append(fields, s[:n])
		s = s[n:]
	}
	return fields, nil
}

func refJoinInts(xs ...int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func refSplitInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		x, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad int %q: %w", p, ErrBadEncoding)
		}
		out[i] = x
	}
	return out, nil
}

func refEncodeIntSet(xs []int) string {
	if len(xs) == 0 {
		return ""
	}
	sorted := make([]int, len(xs))
	copy(sorted, xs)
	sort.Ints(sorted)
	uniq := sorted[:1]
	for _, x := range sorted[1:] {
		if x != uniq[len(uniq)-1] {
			uniq = append(uniq, x)
		}
	}
	return refJoinInts(uniq...)
}

// sameResult reports whether two decoder results agree: both failed with
// the same message, or both succeeded with equal elements.
func sameResult[T comparable](got []T, gotErr error, want []T, wantErr error) bool {
	if (gotErr == nil) != (wantErr == nil) {
		return false
	}
	if gotErr != nil {
		return gotErr.Error() == wantErr.Error() && got == nil
	}
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestCodecMatchesReference(t *testing.T) {
	strs := []string{"", "3:abc", "0:", "3:ab", "x:abc", "1:a2:bc3:def", "10:short", ":::",
		"-1:", "+1:a", "01:a", "1,2,3", "-5,0,7", "1,,2", "1,", ",", "+3,-0,007", "9999999999999999999999"}
	for _, s := range strs {
		got, err := Split(s)
		want, wantErr := refSplit(s)
		if !sameResult(got, err, want, wantErr) {
			t.Errorf("Split(%q) = %q, %v; reference %q, %v", s, got, err, want, wantErr)
		}
		gi, err := SplitInts(s)
		wi, wantErr := refSplitInts(s)
		if !sameResult(gi, err, wi, wantErr) {
			t.Errorf("SplitInts(%q) = %v, %v; reference %v, %v", s, gi, err, wi, wantErr)
		}
	}
	sets := [][]int{nil, {}, {5}, {3, 1, 2}, {2, 2, 2}, {-1, 0, -1, 7}, {1, 2, 3},
		{-9223372036854775808, 9223372036854775807, 0}}
	for _, xs := range sets {
		if got, want := EncodeIntSet(xs), refEncodeIntSet(xs); got != want {
			t.Errorf("EncodeIntSet(%v) = %q, reference %q", xs, got, want)
		}
		if got, want := JoinInts(xs...), refJoinInts(xs...); got != want {
			t.Errorf("JoinInts(%v) = %q, reference %q", xs, got, want)
		}
	}
	long := make([]int, 3*smallSet)
	for i := range long {
		long[i] = (i * 37) % 101
	}
	if got, want := EncodeIntSet(long), refEncodeIntSet(long); got != want {
		t.Errorf("EncodeIntSet(long) = %q, reference %q", got, want)
	}
	for _, fields := range [][]string{nil, {""}, {"a", strings.Repeat("x", 1000)}, {"with:colon", "3:tricky"}} {
		if got, want := Join(fields...), refJoin(fields...); got != want {
			t.Errorf("Join(%q) = %q, reference %q", fields, got, want)
		}
		if got, want := string(AppendJoin([]byte("pre"), fields...)), "pre"+refJoin(fields...); got != want {
			t.Errorf("AppendJoin(%q) = %q, want %q", fields, got, want)
		}
	}
}

// TestCodecAllocatesOnlyResult pins every encoder and decoder at one
// allocation, its result, and the forms that cut or decode into a caller's
// buffer at none.
func TestCodecAllocatesOnlyResult(t *testing.T) {
	long := strings.Repeat("x", 200)
	enc := Join("r12", long, "0,1,4,9")
	unsorted := []int{9, 3, 3, 7, 1, 0, 4, 4, 2, 8, 6, 5}
	cases := []struct {
		name string
		f    func()
	}{
		{"Join", func() { _ = Join("r12", long, "0,1,4,9") }},
		{"Split", func() { _, _ = Split(enc) }},
		{"SplitInts", func() { _, _ = SplitInts("0,1,4,9,-12,100") }},
		{"JoinInts", func() { _ = JoinInts(unsorted...) }},
		{"EncodeIntSet/unsorted", func() { _ = EncodeIntSet(unsorted) }},
		{"EncodeIntSet/sorted", func() { _ = EncodeIntSet([]int{0, 1, 1, 2}) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.f); got > 1 {
			t.Errorf("%s: %.0f allocs/op, want at most 1", c.name, got)
		}
	}
	buf := make([]int, 0, 8)
	for name, f := range map[string]func(){
		"Cut":        func() { _, _, _ = Cut(enc) },
		"AppendInts": func() { _, _ = AppendInts(buf[:0], "0,1,4,9,-12,100") },
	} {
		if got := testing.AllocsPerRun(100, f); got != 0 {
			t.Errorf("%s: %.0f allocs/op, want 0", name, got)
		}
	}
}
