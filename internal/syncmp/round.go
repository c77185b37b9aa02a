package syncmp

import "strconv"

// OmitMask returns the paper's omission set [k] = {first k processes} as a
// bitmask over 0-based ids: processes 0..k-1.
func OmitMask(k int) uint64 {
	return (uint64(1) << uint(k)) - 1
}

// PrefixLabels returns the labels "(j,[k])" of every prefix action (process
// j omits to the first k processes) with 0 <= j < n and 1 <= k <= n, at
// index j*n + k-1, so a model can label its edges without building a
// string per edge.
func PrefixLabels(n int) []string {
	out := make([]string, 0, n*n)
	for j := 0; j < n; j++ {
		for k := 1; k <= n; k++ {
			out = append(out, "("+strconv.Itoa(j)+",["+strconv.Itoa(k)+"])")
		}
	}
	return out
}
