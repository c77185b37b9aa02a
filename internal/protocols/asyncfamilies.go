package protocols

import (
	"strconv"

	"repro/internal/proto"
)

// SMVote is a shared-memory consensus heuristic: each process keeps the set
// W of input values it has observed, publishes W in its register every
// phase, adopts the union of everything it reads, and decides min(W) after
// Phases local phases. It satisfies validity by construction and — per
// Corollary 5.4 — must fail agreement or decision under the synchronic
// layering; the analysis engine finds the witness.
//
// Local state encoding: phase | W.
type SMVote struct {
	// Phases is the local phase count after which the process decides.
	Phases int
}

var _ proto.SMProtocol = SMVote{}

// Name implements proto.SMProtocol.
func (s SMVote) Name() string { return "smvote(P=" + strconv.Itoa(s.Phases) + ")" }

// Init implements proto.SMProtocol.
func (s SMVote) Init(n, id, input int) string {
	return proto.Join("0", proto.EncodeIntSet([]int{input}))
}

// WriteValue implements proto.SMProtocol: publish W.
func (s SMVote) WriteValue(state string) string {
	var buf [setBuf]int
	_, w := parsePhaseSet(state, buf[:0])
	return proto.EncodeIntSet(w)
}

// Observe implements proto.SMProtocol: adopt the union of all registers.
// A malformed register value is ignored.
func (s SMVote) Observe(state string, regs []string) string {
	var buf [setBuf]int
	phase, w := parsePhaseSet(state, buf[:0])
	for _, r := range regs {
		w, _ = proto.AppendInts(w, r)
	}
	return formatPhaseSet(phase+1, w)
}

// Decide implements proto.SMProtocol.
func (s SMVote) Decide(state string) (int, bool) {
	return decideMinAfter(state, s.Phases)
}

// MPFlood is the message-passing analogue of SMVote for the permutation
// layering: flood the set of values seen, decide min(W) after Phases local
// phases. Corollary 5.4's message-passing analogue says it must fail; the
// engine finds the witness.
//
// Local state encoding: phase | W.
type MPFlood struct {
	// Phases is the local phase count after which the process decides.
	Phases int
}

var _ proto.MPProtocol = MPFlood{}

// Name implements proto.MPProtocol.
func (p MPFlood) Name() string { return "mpflood(P=" + strconv.Itoa(p.Phases) + ")" }

// Init implements proto.MPProtocol.
func (p MPFlood) Init(n, id, input int) string {
	return proto.Join("0", proto.EncodeIntSet([]int{input}))
}

// Send implements proto.MPProtocol: broadcast W.
func (p MPFlood) Send(state string) []string {
	var buf [setBuf]int
	_, w := parsePhaseSet(state, buf[:0])
	return broadcast(proto.EncodeIntSet(w))
}

// Receive implements proto.MPProtocol: union everything delivered. A
// malformed message is ignored.
func (p MPFlood) Receive(state string, in [][]string) string {
	var buf [setBuf]int
	phase, w := parsePhaseSet(state, buf[:0])
	for _, msgs := range in {
		for _, msg := range msgs {
			w, _ = proto.AppendInts(w, msg)
		}
	}
	return formatPhaseSet(phase+1, w)
}

// Decide implements proto.MPProtocol.
func (p MPFlood) Decide(state string) (int, bool) {
	return decideMinAfter(state, p.Phases)
}

// SMFullInfo is the shared-memory full-information protocol: publish the
// whole local state, adopt the vector read. Never decides; used for
// protocol-independent structural checks.
type SMFullInfo struct{}

var _ proto.SMProtocol = SMFullInfo{}

// Name implements proto.SMProtocol.
func (SMFullInfo) Name() string { return "smfullinfo" }

// Init implements proto.SMProtocol.
func (SMFullInfo) Init(n, id, input int) string {
	return proto.Join("L", strconv.Itoa(n), strconv.Itoa(id), strconv.Itoa(input))
}

// WriteValue implements proto.SMProtocol.
func (SMFullInfo) WriteValue(state string) string { return state }

// Observe implements proto.SMProtocol.
func (SMFullInfo) Observe(state string, regs []string) string {
	fields := make([]string, 0, len(regs)+2)
	fields = append(fields, "V", state)
	fields = append(fields, regs...)
	return proto.Join(fields...)
}

// Decide implements proto.SMProtocol: never.
func (SMFullInfo) Decide(string) (int, bool) { return 0, false }

// MPFullInfo is the message-passing full-information protocol: broadcast
// the whole local state, absorb everything delivered. Never decides.
type MPFullInfo struct{}

var _ proto.MPProtocol = MPFullInfo{}

// Name implements proto.MPProtocol.
func (MPFullInfo) Name() string { return "mpfullinfo" }

// Init implements proto.MPProtocol.
func (MPFullInfo) Init(n, id, input int) string {
	return proto.Join("L", strconv.Itoa(n), strconv.Itoa(id), strconv.Itoa(input))
}

// Send implements proto.MPProtocol.
func (MPFullInfo) Send(state string) []string { return broadcast(state) }

// Receive implements proto.MPProtocol.
func (MPFullInfo) Receive(state string, in [][]string) string {
	fields := []string{"V", state}
	for _, msgs := range in {
		fields = append(fields, proto.Join(msgs...))
	}
	return proto.Join(fields...)
}

// Decide implements proto.MPProtocol: never.
func (MPFullInfo) Decide(string) (int, bool) { return 0, false }
