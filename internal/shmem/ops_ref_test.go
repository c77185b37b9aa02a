package shmem

import (
	"errors"
	"fmt"
)

// The op-level executor gives M^rw its primitive semantics — individual
// write and scan events in an arbitrary interleaving — independently of the
// four-stage virtual rounds. It exists to make the layering claim of
// Lemma 4.3 executable: every S^rw action must coincide with a legal
// op-level interleaving of local phases (the package tests check this
// exactly, for every action, against the full-information protocol).

// OpKind distinguishes primitive M^rw events.
type OpKind int

// Primitive event kinds. A local phase of process P is WriteOp(P) followed
// later by ScanOp(P); the write stores the value computed from P's local
// state at the start of its phase.
const (
	// WriteOp writes process P's phase value into V_P.
	WriteOp OpKind = iota + 1
	// ScanOp performs P's maximal read sequence (every register once) and
	// completes P's local phase.
	ScanOp
	// SkipOp marks that P performs no phase at all in this span (used only
	// to document absence; it is a no-op).
	SkipOp
)

// Op is a primitive event.
type Op struct {
	Kind OpKind
	P    int
}

// ErrBadOpSequence is returned when an op sequence is not a legal set of
// local phases (e.g. a scan without a preceding write, or two phases for
// one process).
var ErrBadOpSequence = errors.New("shmem: op sequence is not a set of legal local phases")

// ApplyOps executes a primitive interleaving in which each process
// performs at most one local phase (one WriteOp then one ScanOp). Write
// values are computed from the local state at the start of the sequence
// (the phase start), matching the stage semantics where all writes precede
// the writer's own scan.
func (m *Model) ApplyOps(x *State, ops []Op) (*State, error) {
	n, p := m.N(), m.tab.p
	regs := append([]string(nil), x.env.mem...)
	locals := append([]string(nil), x.locals...)
	wrote := make([]bool, n)
	scanned := make([]bool, n)
	for _, op := range ops {
		if op.P < 0 || op.P >= n {
			return nil, fmt.Errorf("process %d out of range: %w", op.P, ErrBadOpSequence)
		}
		switch op.Kind {
		case WriteOp:
			if wrote[op.P] || scanned[op.P] {
				return nil, fmt.Errorf("process %d writes twice: %w", op.P, ErrBadOpSequence)
			}
			wrote[op.P] = true
			if v := p.WriteValue(x.locals[op.P]); v != "" {
				regs[op.P] = v
			}
		case ScanOp:
			if scanned[op.P] {
				return nil, fmt.Errorf("process %d scans twice: %w", op.P, ErrBadOpSequence)
			}
			if !wrote[op.P] {
				return nil, fmt.Errorf("process %d scans before writing: %w", op.P, ErrBadOpSequence)
			}
			scanned[op.P] = true
			snapshot := append([]string(nil), regs...)
			locals[op.P] = p.Observe(x.locals[op.P], snapshot)
		case SkipOp:
			// No-op.
		default:
			return nil, fmt.Errorf("unknown op kind %d: %w", op.Kind, ErrBadOpSequence)
		}
	}
	return NewState(p, 0, regs, locals, x.inputs), nil
}

// StageOps expands the synchronic action (j,k) into its defining op-level
// interleaving: W1 (proper writes), R1 (scans of proper processes with id <
// k), W2 (j's write), R2 (scans of j and the remaining proper processes).
func (m *Model) StageOps(j, k int) []Op {
	var ops []Op
	for i := 0; i < m.N(); i++ {
		if i != j {
			ops = append(ops, Op{Kind: WriteOp, P: i})
		}
	}
	for i := 0; i < m.N(); i++ {
		if i != j && i < k {
			ops = append(ops, Op{Kind: ScanOp, P: i})
		}
	}
	ops = append(ops, Op{Kind: WriteOp, P: j})
	for i := 0; i < m.N(); i++ {
		if i != j && i >= k {
			ops = append(ops, Op{Kind: ScanOp, P: i})
		}
	}
	ops = append(ops, Op{Kind: ScanOp, P: j})
	return ops
}

// AbsentOps expands the synchronic action (j,A): the proper processes
// write in W1 and scan in R1; j performs nothing.
func (m *Model) AbsentOps(j int) []Op {
	var ops []Op
	for i := 0; i < m.N(); i++ {
		if i != j {
			ops = append(ops, Op{Kind: WriteOp, P: i})
		}
	}
	for i := 0; i < m.N(); i++ {
		if i != j {
			ops = append(ops, Op{Kind: ScanOp, P: i})
		}
	}
	return ops
}
