// Package asyncmp implements the asynchronous message-passing model with
// the paper's permutation layering S^per (Section 5.1), the first
// message-passing analogue of immediate-snapshot executions.
//
// # Local phases
//
// A local phase of process i consists of an emission of at most one message
// to every other process, and the delivery of all messages outstanding for
// i. Mirroring the write-then-read orientation of immediate snapshots, the
// messages emitted in a phase are a function of the process's local state at
// the start of the phase, and the delivered messages update the state
// afterwards: phase(i) = send(state_i); state_i' = receive(state_i, due).
// This is the orientation under which the paper's claims
//
//	x[..,pk,pk+1,..] ~s x[..,{pk,pk+1},..] ~s x[..,pk+1,pk,..]
//
// hold exactly (with receive-before-send and sends computed from the
// post-receive state, the messages of pk+1 — and hence the states of every
// later process — would depend on the order of the pair, and the
// transposition chain would fail); the mechanical check is in the package
// tests and in experiment E4.
//
// # Environment
//
// The environment's local state is the cumulative per-channel send history:
// hist[from][to] is the sequence of all messages ever sent from one process
// to another. How far each receiver has consumed each channel is part of the
// receiver's local state (together with its protocol state); the messages
// outstanding for i on channel j are hist[j][i][consumed[i][j]:]. This
// choice is what makes the environment agree across states that differ only
// in whether a message was already delivered — exactly the situations the
// paper's similarity arguments rely on — while the global state still
// determines the future of the system.
//
// # Environment actions (layers)
//
//   - full permutation [p1,...,pn]: the processes perform local phases
//     sequentially in the given order (later processes receive the fresh
//     messages of earlier ones);
//   - drop-one [p1,...,p_{n-1}]: as above, but one process performs no
//     phase at all;
//   - concurrent pair [p1,...,{pk,pk+1},...,pn]: as the full permutation,
//     except pk and pk+1 run concurrently — both send from their pre-phase
//     states and both then receive everything outstanding, including each
//     other's fresh message (the immediate-snapshot "block").
//
// Every S^per-run has all processes but at most one performing local phases
// infinitely often, and the model displays no finite failure.
//
// # Shared immutable records
//
// A State points to immutable records: one environment record (the
// channel histories and the environment key) and one record per process
// (protocol state, consumption counters, local key, decision). Each model
// owns an id table that files every record it builds under a dense id and
// builds each at most once: messages and protocol states (a
// core.LocalTable, shared with the synchronous models, which also runs
// Decide and Send once per protocol state), channel histories (by prefix
// history id and message id), environments (by their n² history ids) and
// process records (by protocol-state id and consumption counters). Receive
// runs once per (protocol state, inbox message ids) across the whole
// model. In both layerings every action gives each process at most one
// local phase, sent from the source state, so an action is a set of
// processes that phase plus, for each, the set of senders whose fresh
// message it receives. One phase memo per source state serves every
// action: it resolves each receiver's (fresh senders) set once to a
// process record id and each phased set once to an environment id, writes
// the successor's cache key as (environment id, process record ids),
// probes the model's successor cache, and only on a miss builds the
// State, its slice of records and its canonical key. A duplicate successor
// therefore costs no allocation. Ids never leave the process: Key,
// checkpoints and DOT output use the canonical strings, and a state whose
// records the table did not file (another model's Initial, a state the
// package tests build from primitive events) is keyed from its strings, so
// it gets the id of the model's own equal state. A history's capacity equals its length, so no two states
// ever alias a history that one of them could extend. Sequential,
// WithPair, Apply and ApplyAbsent are one-action memos run without a
// cache. The independent reference the memo is tested against, ApplyOps,
// executes primitive send and receive events (the textbook semantics of
// asynchronous message passing) on a mutable copy of the state; it lives
// in the package tests (ops_ref_test.go).
package asyncmp
