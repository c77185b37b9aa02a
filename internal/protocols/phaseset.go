package protocols

import (
	"strconv"

	"repro/internal/proto"
)

// setBuf sizes the stack buffers the flooding protocols decode W into; a
// larger W spills to the heap.
const setBuf = 64

// parsePhaseSet decodes the "phase | W" state of the flooding protocols
// (FloodSet, SMVote, MPFlood) without allocating: W is decoded into buf,
// whose backing array w shares unless W outgrows it. A state that is not
// two Join fields with an integer phase decodes as (0, empty); a malformed
// W decodes as empty.
func parsePhaseSet(state string, buf []int) (phase int, w []int) {
	f0, rest, ok := proto.Cut(state)
	if !ok {
		return 0, nil
	}
	f1, rest, ok := proto.Cut(rest)
	if !ok || rest != "" {
		return 0, nil
	}
	phase, err := strconv.Atoi(f0)
	if err != nil {
		return 0, nil
	}
	if w, err = proto.AppendInts(buf[:0], f1); err != nil {
		return phase, nil
	}
	return phase, w
}

// formatPhaseSet encodes a "phase | W" state, W canonicalized.
func formatPhaseSet(phase int, w []int) string {
	return proto.Join(strconv.Itoa(phase), proto.EncodeIntSet(w))
}

// decideMinAfter decides min(W) once the phase counter reaches bound.
func decideMinAfter(state string, bound int) (int, bool) {
	var buf [setBuf]int
	phase, w := parsePhaseSet(state, buf[:0])
	if phase < bound || len(w) == 0 {
		return 0, false
	}
	min := w[0]
	for _, v := range w[1:] {
		if v < min {
			min = v
		}
	}
	return min, true
}
