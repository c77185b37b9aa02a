// Package syncmp implements the round-based synchronous message-passing
// model of Section 6 of the paper: the standard t-resilient synchronous
// model with sending-omission/crash failures.
//
// The environment acts once per round with an action (j, G): all messages
// sent in the upcoming round by process j to processes in G are lost. Per
// the paper's Section-6 assumptions, (i) in the first round in which a
// process fails the environment blocks an arbitrary subset of its messages,
// (ii) the environment silences a faulty process forever in all later
// rounds, and (iii) the environment's local state keeps track of the failed
// processes (so the failed set is part of EnvKey and of the state Key).
//
// Two layerings are provided:
//
//   - S1: one omission per layer, S1(x) = { x(j,[k]) : 1<=j<=n, 0<=k<=n },
//     where [k] = {1,...,k} (processes 0..k-1 in 0-based indexing) and
//     (j,[0]) is the failure-free action.
//   - S^t: S1 while fewer than t processes are failed, and the single
//     failure-free action afterwards (Section 6).
//
// The round mechanics (Table, RoundMemo) are exported so that
// the mobile failure model M^mf (package mobile) can reuse them with its
// own failure semantics. Every model owns a Table that gives each
// canonical local-state string and message a dense id and memoizes the
// protocol on them: Decide and Send once per local state, and Deliver once
// per (receiver local state, inbox) across the whole model, where the inbox
// is its message per sender, or only its set of messages for a protocol
// that declares proto.SetInbox (FloodSet). A state's
// successors are enumerated key-first through one RoundMemo. Per action
// it re-resolves only the receivers whose lost set can differ from the
// previous action's, since x(j,[k]) and x(j,[k+1]) agree modulo process k
// (the proof of Lemma 5.1). If none of their local ids changes and the
// failed set is the same, the successor is the previous one, reused
// without a probe. Otherwise the memo probes the model's successor cache
// with the key (round, failed set, local ids), and builds a State only for
// a successor the cache has not seen. Ids stay inside the
// process: Key is still the canonical string, and a state built elsewhere
// (NewState, another model's Initial) is keyed from its strings. The plain
// single-action Round the memo is tested against, and the one-action
// entry points ApplyAction and ApplyMulti, live in the package tests
// (round_ref_test.go).
package syncmp
