package syncmp

import "strconv"

// OmitMask returns the paper's omission set [k] = {first k processes} as a
// bitmask over 0-based ids: processes 0..k-1.
func OmitMask(k int) uint64 {
	return (uint64(1) << uint(k)) - 1
}

// ActionLabels returns the label list of the prefix layering's actions:
// "noop", the failure-free round, at index 0, and "(j,[k])", process j
// omitting to the first k processes, at index j*n + k (PrefixLabel) for
// 0 <= j < n and 1 <= k <= n. A model hands it to its successor cache
// and labels its edges by index.
func ActionLabels(n int) []string {
	out := make([]string, 0, 1+n*n)
	out = append(out, "noop")
	for j := 0; j < n; j++ {
		for k := 1; k <= n; k++ {
			out = append(out, "("+strconv.Itoa(j)+",["+strconv.Itoa(k)+"])")
		}
	}
	return out
}

// PrefixLabel returns the index of action (j,[k]) in ActionLabels(n).
func PrefixLabel(n, j, k int) uint32 { return uint32(j*n + k) }
