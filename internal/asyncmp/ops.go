package asyncmp

import (
	"errors"
	"fmt"

	"repro/internal/proto"
)

// The op-level executor gives the asynchronous message-passing model its
// primitive semantics — individual send and receive events in an arbitrary
// interleaving — independently of the layer actions and of the phaseMemo
// that enumerates them. It works on a mutable copy of the state and
// rebuilds the successor from scratch. It makes the layering claims
// executable: every S^per action and every synchronic action must coincide
// with a legal interleaving of local phases (checked in the package tests
// for every action, against the memoized successors).

// OpKind distinguishes primitive events.
type OpKind int

// Primitive event kinds. A local phase of process P is SendOp(P) followed
// later by RecvOp(P); the emission is computed from P's state at the start
// of the phase, and the receive delivers everything outstanding at its
// moment of execution.
const (
	// SendOp emits process P's phase messages.
	SendOp OpKind = iota + 1
	// RecvOp delivers everything outstanding for P and completes its phase.
	RecvOp
)

// Op is a primitive event.
type Op struct {
	Kind OpKind
	P    int
}

// ErrBadOpSequence is returned when an op sequence is not a legal set of
// local phases.
var ErrBadOpSequence = errors.New("asyncmp: op sequence is not a set of legal local phases")

// ApplyOps executes a primitive interleaving in which each process
// performs at most one local phase (one SendOp then one RecvOp).
func (l *layering) ApplyOps(x *State, ops []Op) (*State, error) {
	w := x.thaw()
	sent := make([]bool, l.n)
	received := make([]bool, l.n)
	for _, op := range ops {
		if op.P < 0 || op.P >= l.n {
			return nil, fmt.Errorf("process %d out of range: %w", op.P, ErrBadOpSequence)
		}
		switch op.Kind {
		case SendOp:
			if sent[op.P] || received[op.P] {
				return nil, fmt.Errorf("process %d sends twice: %w", op.P, ErrBadOpSequence)
			}
			sent[op.P] = true
			w.send(l.p, op.P)
		case RecvOp:
			if received[op.P] {
				return nil, fmt.Errorf("process %d receives twice: %w", op.P, ErrBadOpSequence)
			}
			if !sent[op.P] {
				return nil, fmt.Errorf("process %d receives before sending: %w", op.P, ErrBadOpSequence)
			}
			received[op.P] = true
			w.receive(l.p, op.P)
		default:
			return nil, fmt.Errorf("unknown op kind %d: %w", op.Kind, ErrBadOpSequence)
		}
	}
	return newState(l.p, w.hist, w.consumed, w.plocal, x.inputs), nil
}

// SequentialOps expands a sequential scheduling action into its op-level
// interleaving: each listed process sends then receives before the next
// starts.
func SequentialOps(order []int) []Op {
	ops := make([]Op, 0, 2*len(order))
	for _, p := range order {
		ops = append(ops, Op{Kind: SendOp, P: p}, Op{Kind: RecvOp, P: p})
	}
	return ops
}

// PairOps expands the concurrent-pair action: at position k both block
// members send before either receives.
func PairOps(order []int, k int) []Op {
	var ops []Op
	for idx := 0; idx < len(order); idx++ {
		if idx == k {
			a, b := order[k], order[k+1]
			ops = append(ops,
				Op{Kind: SendOp, P: a}, Op{Kind: SendOp, P: b},
				Op{Kind: RecvOp, P: a}, Op{Kind: RecvOp, P: b})
			idx++
			continue
		}
		ops = append(ops, Op{Kind: SendOp, P: order[idx]}, Op{Kind: RecvOp, P: order[idx]})
	}
	return ops
}

// SynchronicOps expands the synchronic action (j,k) on n processes: W1
// (the proper processes send), R1 (the proper processes below k receive),
// W2 (j sends), R2 (the proper processes from k up, then j, receive).
func SynchronicOps(n, j, k int) []Op {
	ops := make([]Op, 0, 2*n)
	for i := 0; i < n; i++ {
		if i != j {
			ops = append(ops, Op{Kind: SendOp, P: i})
		}
	}
	for i := 0; i < k && i < n; i++ {
		if i != j {
			ops = append(ops, Op{Kind: RecvOp, P: i})
		}
	}
	ops = append(ops, Op{Kind: SendOp, P: j})
	for i := k; i < n; i++ {
		if i != j {
			ops = append(ops, Op{Kind: RecvOp, P: i})
		}
	}
	return append(ops, Op{Kind: RecvOp, P: j})
}

// AbsentOps expands the synchronic action (j,A) on n processes: the proper
// processes send, then receive; j takes no step.
func AbsentOps(n, j int) []Op {
	ops := make([]Op, 0, 2*n)
	for _, kind := range []OpKind{SendOp, RecvOp} {
		for i := 0; i < n; i++ {
			if i != j {
				ops = append(ops, Op{Kind: kind, P: i})
			}
		}
	}
	return ops
}

// working is a mutable copy of a state: hist[from][to] and
// consumed[to][from] as in newState.
type working struct {
	hist     [][][]string
	consumed [][]int
	plocal   []string
}

func (s *State) thaw() *working {
	n := len(s.procs)
	w := &working{
		hist:     make([][][]string, n),
		consumed: make([][]int, n),
		plocal:   make([]string, n),
	}
	for from := 0; from < n; from++ {
		w.hist[from] = make([][]string, n)
		for to := 0; to < n; to++ {
			w.hist[from][to] = append([]string(nil), s.env.hist[from*n+to]...)
		}
	}
	for i, r := range s.procs {
		w.consumed[i] = append([]int(nil), r.consumed...)
		w.plocal[i] = r.local
	}
	return w
}

// send emits process i's messages (computed from its pre-phase state).
func (w *working) send(p proto.MPProtocol, i int) {
	outs := p.Send(w.plocal[i])
	for d := 0; d < len(w.plocal) && d < len(outs); d++ {
		if d == i || outs[d] == "" {
			continue
		}
		w.hist[i][d] = append(w.hist[i][d], outs[d])
	}
}

// receive delivers everything outstanding for i and updates its state.
func (w *working) receive(p proto.MPProtocol, i int) {
	in := make([][]string, len(w.plocal))
	for j := range in {
		in[j] = w.hist[j][i][w.consumed[i][j]:]
		w.consumed[i][j] = len(w.hist[j][i])
	}
	w.plocal[i] = p.Receive(w.plocal[i], in)
}
