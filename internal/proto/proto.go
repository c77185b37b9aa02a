package proto

// SyncProtocol is a deterministic process protocol for the round-based
// synchronous message-passing models (the t-resilient synchronous model of
// Section 6 and the mobile-failure model M^mf of Section 5).
//
// In each round every process first emits one message per destination
// (Send), the environment decides which messages to drop, and then every
// process consumes the vector of messages that actually arrived (Deliver).
// Local states are canonical strings (see the package comment).
//
// Send, Deliver and Decide must be pure functions of their arguments: equal
// arguments give equal results whatever was called before, and nothing is
// retained between calls (Deliver must neither keep nor modify its in
// slice, which the caller reuses). The models rely on this to call Decide
// and Send once per distinct local state and Deliver once per distinct
// (local state, inbox) pair, and to reuse those results for every source
// state and successor in which the same arguments recur (syncmp.Table);
// ValidateSync checks it on small systems. A protocol that also declares
// SetInbox is called once per (local state, set of inbox messages).
type SyncProtocol interface {
	// Name identifies the protocol.
	Name() string

	// Init returns process id's initial local state given the system size n
	// and the process's input value.
	Init(n, id, input int) string

	// Send returns the messages the process sends this round: out[j] is the
	// message to process j, with "" meaning no message. len(out) must be n.
	// A process never sends to itself (out[id] is ignored).
	Send(state string) []string

	// Deliver consumes the messages received this round (in[j] is the
	// message from process j, "" if none arrived) and returns the next
	// local state.
	Deliver(state string, in []string) string

	// Decide reports the write-once decision variable of the local state:
	// the decided value and true, or (_, false) if undecided. Once a state
	// reports a decision, every Deliver-successor of it must report the
	// same decision.
	Decide(state string) (int, bool)
}

// SetInbox is implemented by a SyncProtocol whose Deliver(s, in) depends
// only on s and on the set of distinct non-empty strings in in: not on
// which process sent a message, how many sent it, or how many sent none.
// A flooding protocol that unions what it receives (FloodSet) is one. The
// synchronous models then key their Deliver memo by (local state, message
// set) instead of (local state, inbox vector), so inboxes that differ only
// in who sent what share one Deliver call. ValidateSync checks the
// declaration: it reruns each Deliver on the reversed inbox and on the
// inbox with its repeated messages blanked.
type SetInbox interface {
	SyncProtocol
	// SetInbox is the declaration itself; it is never called.
	SetInbox()
}

// SMProtocol is a deterministic process protocol for the asynchronous
// single-writer/multi-reader shared-memory model M^rw.
//
// A local phase (the paper's unit of progress) is: at most one write into
// the process's own register V_id, followed by a maximal sequence of reads
// covering every register once. WriteValue produces the value written at the
// start of the phase (or "" to skip the write); Observe consumes the scanned
// register contents and produces the next local state.
//
// WriteValue, Observe and Decide must be pure functions of their
// arguments: equal arguments give equal results whatever was called
// before, and nothing is retained between calls. Observe must neither keep
// nor modify its regs slice, which the caller reuses. The models rely on
// this to call Decide and WriteValue once per distinct local state and
// Observe once per distinct (local state, memory) pair, and to reuse those
// results for every source state, action and successor in which the same
// arguments recur (the shmem id table, as asyncmp's does for Receive);
// ValidateSM checks it on small systems.
type SMProtocol interface {
	// Name identifies the protocol.
	Name() string

	// Init returns process id's initial local state.
	Init(n, id, input int) string

	// WriteValue returns the value the process writes into its register at
	// the start of its local phase, or "" to skip the write.
	WriteValue(state string) string

	// Observe consumes the register values read during the phase (regs[j]
	// is the content of V_j at the moment it was read) and returns the next
	// local state.
	Observe(state string, regs []string) string

	// Decide reports the write-once decision variable of the local state.
	Decide(state string) (int, bool)
}

// MPProtocol is a deterministic process protocol for the asynchronous
// message-passing model with the paper's local phases: first all outstanding
// messages sent to the process are delivered, then the process sends at most
// one message to each distinct destination.
//
// Send, Receive and Decide must be pure functions of their arguments: equal
// arguments give equal results whatever was called before, and nothing is
// retained between calls. Receive must neither keep nor modify its in
// slices, which alias the model's channel histories and inbox buffers the
// caller reuses. The models rely on this to call Decide and Send once per
// distinct local state and Receive once per distinct (local state, inbox)
// pair, and to reuse those results for every source state, in either
// asynchronous layering, and every successor in which the same arguments
// recur (the asyncmp id table, as syncmp.Table does for Deliver);
// ValidateMP checks it on small systems.
type MPProtocol interface {
	// Name identifies the protocol.
	Name() string

	// Init returns process id's initial local state.
	Init(n, id, input int) string

	// Receive consumes all outstanding messages delivered in this local
	// phase: in[j] is the FIFO sequence of messages from sender j, oldest
	// first. It returns the next local state.
	Receive(state string, in [][]string) string

	// Send returns the messages emitted at the end of the local phase:
	// out[j] is the message to process j, "" meaning none. len(out) must be
	// n; out[id] is ignored.
	Send(state string) []string

	// Decide reports the write-once decision variable of the local state.
	Decide(state string) (int, bool)
}

// Decider is the common decision-reporting subset of the protocol
// interfaces; the analysis engine only needs this plus the model semantics.
type Decider interface {
	Decide(state string) (int, bool)
}
