package asyncmp

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/proto"
)

// Synchronic is the synchronic layering for asynchronous message passing —
// the paper remarks after Corollary 5.4 that "a completely analogous
// impossibility proof can be given for asynchronous message passing as
// well; the structure of the layering function and the reasoning underlying
// the results remain unchanged", and that the resulting submodel is "even
// closer to the synchronous models that are popular in the literature".
//
// A virtual round mirrors the shared-memory stages W1,R1,W2,R2:
//
//   - action (j,k): the proper processes (all but j) send in W1; the
//     proper processes with id < k receive in R1 — everything outstanding
//     EXCEPT j's yet-unsent round message; j sends in W2; j and the proper
//     processes with id >= k receive in R2, seeing everything outstanding
//     including j's fresh messages.
//   - action (j,A): the proper processes send in W1 and receive in R1; the
//     slow process j neither sends nor receives, and everything addressed
//     to it (and everything it will eventually send) stays pending —
//     delayed, not lost, the crucial difference from the synchronous
//     mobile-failure model.
//
// Every process sends from its pre-round state, so a round is a layer of
// at most one local phase per process and enumerates through the same
// phaseMemo as S^per.
//
// In every round at least n-1 processes send and receive a full round of
// messages, so the submodel is fair and nearly synchronous; consensus is
// still impossible (the package tests certify the refutation).
type Synchronic struct {
	layering
}

var _ core.Model = (*Synchronic)(nil)

// NewSynchronic returns the synchronic message-passing model for protocol
// p on n processes.
func NewSynchronic(p proto.MPProtocol, n int) *Synchronic {
	m := &Synchronic{}
	m.init(p, n, fmt.Sprintf("asyncmp/Ssync(n=%d,%s)", n, p.Name()), func() []action { return syncActions(n) })
	return m
}

// Apply performs the virtual round of action (j,k): proper sends, early
// receivers (proper id < k) before j's sends, then j's sends, then the late
// receivers (j and proper id >= k).
func (m *Synchronic) Apply(x *State, j, k int) *State {
	return m.apply(x, synchronicRound(m.n, j, k))
}

// ApplyAbsent performs the virtual round of action (j,A): the proper
// processes send and receive; j does nothing.
func (m *Synchronic) ApplyAbsent(x *State, j int) *State {
	return m.apply(x, absentRound(m.n, j))
}

// syncActions is the synchronic action table S(x) = { x(j,k) } ∪ { x(j,A) },
// mirroring the shared-memory synchronic layering: for each j, the actions
// (j,0) … (j,n) and then (j,A).
func syncActions(n int) []action {
	out := make([]action, 0, n*(n+2))
	for j := 0; j < n; j++ {
		for k := 0; k <= n; k++ {
			a := synchronicRound(n, j, k)
			a.label = "(" + strconv.Itoa(j) + "," + strconv.Itoa(k) + ")"
			out = append(out, a)
		}
		a := absentRound(n, j)
		a.label = "(" + strconv.Itoa(j) + ",A)"
		out = append(out, a)
	}
	return out
}
