// Package proto defines the protocol interfaces for the three model families
// the paper analyzes (synchronous message passing, asynchronous read/write
// shared memory, asynchronous message passing), together with a small
// canonical string codec.
//
// Local protocol states are canonical strings: two logical states are equal
// exactly if their encodings are equal. This makes any protocol's states
// directly usable as the paper's local states L_i — the framework observes
// them only through equality, decisions, and the model's transition rules.
//
// The codec sits under every protocol step, so each encoder and decoder
// allocates only its result: sizes are counted in a first pass and the
// output is written into one exactly-sized buffer.
package proto

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ErrBadEncoding is returned by decoding helpers when the input is not a
// valid canonical encoding.
var ErrBadEncoding = errors.New("proto: bad encoding")

// Join encodes a sequence of fields into one unambiguous canonical string
// using length prefixes. Join is injective: distinct field sequences yield
// distinct strings, regardless of field contents.
func Join(fields ...string) string {
	size := 0
	for _, f := range fields {
		size += intLen(len(f)) + 1 + len(f)
	}
	var b strings.Builder
	b.Grow(size)
	var num [20]byte
	for _, f := range fields {
		b.Write(strconv.AppendInt(num[:0], int64(len(f)), 10))
		b.WriteByte(':')
		b.WriteString(f)
	}
	return b.String()
}

// AppendJoin appends Join(fields...) to dst. Join is a concatenation of
// per-field encodings, so AppendJoin(AppendJoin(dst, a...), b...) appends
// Join(a..., b...).
func AppendJoin(dst []byte, fields ...string) []byte {
	for _, f := range fields {
		dst = strconv.AppendInt(dst, int64(len(f)), 10)
		dst = append(dst, ':')
		dst = append(dst, f...)
	}
	return dst
}

// Split decodes a string produced by Join back into its fields. The
// fields are substrings of s.
func Split(s string) ([]string, error) {
	count, err := countFields(s)
	if err != nil || count == 0 {
		return nil, err
	}
	fields := make([]string, count)
	for i := range fields {
		fields[i], s, _ = Cut(s)
	}
	return fields, nil
}

// Cut splits the first field off a Join encoding without allocating: for
// s = Join(f, rest...) it returns f, Join(rest...) and true. It validates
// the field as Split does and reports false if s does not start with a
// valid field.
func Cut(s string) (field, rest string, ok bool) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return "", "", false
	}
	n, err := strconv.Atoi(s[:colon])
	if err != nil || n < 0 || len(s)-colon-1 < n {
		return "", "", false
	}
	s = s[colon+1:]
	return s[:n], s[n:], true
}

// countFields validates a Join encoding and returns its field count.
func countFields(s string) (int, error) {
	count := 0
	for len(s) > 0 {
		colon := strings.IndexByte(s, ':')
		if colon < 0 {
			return 0, fmt.Errorf("missing length prefix in %q: %w", s, ErrBadEncoding)
		}
		n, err := strconv.Atoi(s[:colon])
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad length prefix in %q: %w", s, ErrBadEncoding)
		}
		s = s[colon+1:]
		if len(s) < n {
			return 0, fmt.Errorf("truncated field in %q: %w", s, ErrBadEncoding)
		}
		s = s[n:]
		count++
	}
	return count, nil
}

// JoinInts encodes a sequence of integers canonically (order-preserving).
func JoinInts(xs ...int) string { return joinInts(xs, false) }

// joinInts writes xs comma-separated into one exactly-sized string,
// skipping each element equal to its predecessor when dedup is set.
func joinInts(xs []int, dedup bool) string {
	size := 0
	for i, x := range xs {
		if dedup && i > 0 && x == xs[i-1] {
			continue
		}
		if size > 0 {
			size++
		}
		size += intLen(x)
	}
	var b strings.Builder
	b.Grow(size)
	var num [20]byte
	for i, x := range xs {
		if dedup && i > 0 && x == xs[i-1] {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.Write(strconv.AppendInt(num[:0], int64(x), 10))
	}
	return b.String()
}

// intLen is the length of strconv.Itoa(x).
func intLen(x int) int {
	n := 1
	u := uint64(x)
	if x < 0 {
		n++
		u = -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// SplitInts decodes a JoinInts encoding.
func SplitInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	out, err := AppendInts(make([]int, 0, strings.Count(s, ",")+1), s)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendInts appends the integers of a JoinInts encoding to dst, which
// lets a caller decode into a buffer it owns. On a malformed encoding it
// returns dst unchanged (none of s appended) and the error; only that path
// allocates beyond dst's growth.
func AppendInts(dst []int, s string) ([]int, error) {
	if s == "" {
		return dst, nil
	}
	n := len(dst)
	for {
		p, rest, more := strings.Cut(s, ",")
		x, err := strconv.Atoi(p)
		if err != nil {
			return dst[:n], fmt.Errorf("bad int %q: %w", p, ErrBadEncoding)
		}
		dst = append(dst, x)
		if !more {
			return dst, nil
		}
		s = rest
	}
}

// smallSet is the largest set EncodeIntSet sorts in a stack buffer.
const smallSet = 64

// EncodeIntSet encodes a set of integers canonically: sorted ascending with
// duplicates removed.
func EncodeIntSet(xs []int) string {
	if slices.IsSorted(xs) {
		return joinInts(xs, true)
	}
	var buf [smallSet]int
	var sorted []int
	if len(xs) <= smallSet {
		sorted = buf[:len(xs)]
	} else {
		sorted = make([]int, len(xs))
	}
	copy(sorted, xs)
	slices.Sort(sorted)
	return joinInts(sorted, true)
}

// DecodeIntSet decodes an EncodeIntSet encoding into a sorted slice.
func DecodeIntSet(s string) ([]int, error) { return SplitInts(s) }
