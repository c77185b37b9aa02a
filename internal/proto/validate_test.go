package proto_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/proto"
	"repro/internal/protocols"
)

func TestValidateSyncCleanProtocols(t *testing.T) {
	clean := []proto.SyncProtocol{
		protocols.FloodSet{Rounds: 2},
		protocols.EIG{Rounds: 2},
		protocols.FullInfo{},
		protocols.EarlyFloodSet{MaxRounds: 2},
		protocols.ConstantDecider{Value: 0}, // invalid w.r.t. consensus, but contract-clean
	}
	for _, p := range clean {
		if vs := proto.ValidateSync(p, 3, 3); len(vs) != 0 {
			t.Errorf("%s: %d violations, first: %v", p.Name(), len(vs), vs[0])
		}
	}
}

// TestValidateSyncShippedProtocols: every shipped synchronous protocol
// keeps the purity contract the models' model-wide Deliver memo relies on.
// FlickerDecider is built to break write-once and nothing else.
func TestValidateSyncShippedProtocols(t *testing.T) {
	afterOne := protocols.DecideRule{
		P:        protocols.FullInfo{},
		RuleName: "zero-after-one-round",
		Rule:     func(s string) (int, bool) { return 0, strings.HasPrefix(s, "1:V") },
	}
	for _, p := range []proto.SyncProtocol{
		protocols.FloodSet{Rounds: 3},
		protocols.EarlyFloodSet{MaxRounds: 3},
		protocols.EIG{Rounds: 3},
		protocols.FullInfo{},
		afterOne,
		protocols.ConstantDecider{Value: 1},
		protocols.FlickerDecider{},
	} {
		for _, v := range proto.ValidateSync(p, 3, 3) {
			if v.Rule != "write-once" || p.Name() != (protocols.FlickerDecider{}).Name() {
				t.Errorf("%s: %v", p.Name(), v)
			}
		}
	}
}

// TestValidateSyncCatchesHistoryAndInboxWrites: a Deliver whose answer
// depends on how many distinct (state, inbox) pairs it has seen passes the
// call-and-repeat determinism check, and is caught by the reversed
// reused-buffer rerun; a Deliver that blanks its inbox is caught doing so.
func TestValidateSyncCatchesHistoryAndInboxWrites(t *testing.T) {
	for _, c := range []struct {
		p    proto.SyncProtocol
		rule string
	}{
		{&historyDeliver{seen: map[string]bool{}}, "deliver-history"},
		{blankingDeliver{}, "deliver-modifies-input"},
	} {
		rules := map[string]bool{}
		for _, v := range proto.ValidateSync(c.p, 3, 3) {
			rules[v.Rule] = true
		}
		if !rules[c.rule] {
			t.Errorf("%s: no %s violation among %v", c.p.Name(), c.rule, rules)
		}
		if c.rule == "deliver-history" && len(rules) != 1 {
			t.Errorf("%s: want only %s, got %v", c.p.Name(), c.rule, rules)
		}
	}
}

// historyDeliver tags each Deliver result with the number of distinct
// (state, inbox) pairs seen so far: repeating a call at once repeats its
// answer, but a memo shared across source states would freeze the first.
type historyDeliver struct{ seen map[string]bool }

func (*historyDeliver) Name() string                 { return "history" }
func (*historyDeliver) Init(n, id, input int) string { return strconv.Itoa(input) }
func (*historyDeliver) Send(s string) []string       { return []string{s, s, s} }
func (h *historyDeliver) Deliver(s string, in []string) string {
	h.seen[proto.Join(append([]string{s}, in...)...)] = true
	return strconv.Itoa(len(h.seen) % 4)
}
func (*historyDeliver) Decide(string) (int, bool) { return 0, false }

// blankingDeliver consumes its inbox by blanking it.
type blankingDeliver struct{}

func (blankingDeliver) Name() string                 { return "blanking" }
func (blankingDeliver) Init(n, id, input int) string { return strconv.Itoa(id) }
func (blankingDeliver) Send(s string) []string       { return []string{s, s, s} }
func (blankingDeliver) Deliver(s string, in []string) string {
	for i, m := range in {
		s += m
		in[i] = ""
	}
	return s[:1]
}
func (blankingDeliver) Decide(string) (int, bool) { return 0, false }

// TestValidateSyncChecksSetInbox: a protocol declaring proto.SetInbox
// whose Deliver reads the first inbox slot, or counts the non-empty
// messages, is reported under set-inbox and nothing else; FloodSet, which
// declares it, validates clean.
func TestValidateSyncChecksSetInbox(t *testing.T) {
	for _, p := range []proto.SyncProtocol{firstSlot{}, messageCount{}} {
		rules := map[string]bool{}
		for _, v := range proto.ValidateSync(p, 3, 3) {
			rules[v.Rule] = true
		}
		if !rules["set-inbox"] || len(rules) != 1 {
			t.Errorf("%s: violations %v, want only set-inbox", p.Name(), rules)
		}
	}
	for _, n := range []int{3, 4} {
		if vs := proto.ValidateSync(protocols.FloodSet{Rounds: 3}, n, 3); len(vs) != 0 {
			t.Errorf("FloodSet n=%d: %d violations, first: %v", n, len(vs), vs[0])
		}
	}
}

// firstSlot declares proto.SetInbox, but its next state is the message in
// its inbox's first slot: reversing the inbox changes it.
type firstSlot struct{}

func (firstSlot) SetInbox()                    {}
func (firstSlot) Name() string                 { return "first-slot" }
func (firstSlot) Init(n, id, input int) string { return strconv.Itoa(input) }
func (firstSlot) Send(s string) []string       { return []string{s, s, s} }
func (firstSlot) Deliver(s string, in []string) string {
	if in[0] != "" {
		return in[0]
	}
	return s
}
func (firstSlot) Decide(string) (int, bool) { return 0, false }

// messageCount declares proto.SetInbox, but its next state counts the
// non-empty messages: blanking a repeated message changes it.
type messageCount struct{}

func (messageCount) SetInbox()                    {}
func (messageCount) Name() string                 { return "message-count" }
func (messageCount) Init(n, id, input int) string { return "0" }
func (messageCount) Send(string) []string         { return []string{"m", "m", "m"} }
func (messageCount) Deliver(s string, in []string) string {
	k := 0
	for _, m := range in {
		if m != "" {
			k++
		}
	}
	return strconv.Itoa(k)
}
func (messageCount) Decide(string) (int, bool) { return 0, false }

func TestValidateSyncCatchesWriteOnce(t *testing.T) {
	vs := proto.ValidateSync(protocols.FlickerDecider{}, 3, 3)
	if len(vs) == 0 {
		t.Fatal("flicker protocol passed validation")
	}
	found := false
	for _, v := range vs {
		if v.Rule == "write-once" {
			found = true
			if !strings.Contains(v.String(), "write-once") {
				t.Errorf("String() = %q", v.String())
			}
		}
	}
	if !found {
		t.Errorf("no write-once violation among %d findings", len(vs))
	}
}

func TestValidateSyncCatchesShortSendVector(t *testing.T) {
	vs := proto.ValidateSync(shortSender{}, 3, 1)
	found := false
	for _, v := range vs {
		if v.Rule == "send-length" {
			found = true
		}
	}
	if !found {
		t.Errorf("short send vector not flagged: %v", vs)
	}
}

// shortSender returns a 1-element send vector for a 3-process system.
type shortSender struct{}

func (shortSender) Name() string                        { return "short" }
func (shortSender) Init(n, id, input int) string        { return "s" }
func (shortSender) Send(string) []string                { return []string{"x"} }
func (shortSender) Deliver(s string, _ []string) string { return s }
func (shortSender) Decide(string) (int, bool)           { return 0, false }

func TestValidateSMCleanAndDirty(t *testing.T) {
	if vs := proto.ValidateSM(protocols.SMVote{Phases: 2}, 3, 3); len(vs) != 0 {
		t.Errorf("SMVote: %v", vs)
	}
	if vs := proto.ValidateSM(protocols.SMFullInfo{}, 3, 2); len(vs) != 0 {
		t.Errorf("SMFullInfo: %v", vs)
	}
	if vs := proto.ValidateSM(flickerSM{}, 2, 3); len(vs) == 0 {
		t.Error("flickering SM protocol passed validation")
	}
}

// flickerSM decides its phase parity — not write-once.
type flickerSM struct{}

func (flickerSM) Name() string                 { return "flickersm" }
func (flickerSM) Init(n, id, input int) string { return "0" }
func (flickerSM) WriteValue(string) string     { return "w" }
func (flickerSM) Observe(s string, _ []string) string {
	return s + "x"
}
func (flickerSM) Decide(s string) (int, bool) { return len(s) % 2, true }

// TestValidateSMCatchesRetainingAndModifying: an Observe that keeps its
// view, or writes to it, is caught; the one that keeps it only by the rerun
// through a reused view buffer.
func TestValidateSMCatchesRetainingAndModifying(t *testing.T) {
	for _, c := range []struct {
		p    proto.SMProtocol
		rule string
	}{
		{&retainingObserver{}, "observe-retains-input"},
		{modifyingObserver{}, "observe-modifies-input"},
	} {
		rules := map[string]bool{}
		for _, v := range proto.ValidateSM(c.p, 2, 2) {
			rules[v.Rule] = true
		}
		if !rules[c.rule] || (c.rule == "observe-retains-input" && len(rules) != 1) {
			t.Errorf("%s: violations %v, want %s", c.p.Name(), rules, c.rule)
		}
	}
}

// retainingObserver keeps each view, keyed by the state Observe returns,
// and writes it from that state: pure only as long as no caller reuses a
// view.
type retainingObserver struct{ kept map[string][]string }

func (*retainingObserver) Name() string                 { return "retaining-sm" }
func (*retainingObserver) Init(n, id, input int) string { return proto.Join("r", strconv.Itoa(id)) }
func (r *retainingObserver) WriteValue(s string) string {
	return s + strings.Join(r.kept[s], ",")
}
func (r *retainingObserver) Observe(s string, regs []string) string {
	next := proto.Join(append([]string{s}, regs...)...)
	if r.kept == nil {
		r.kept = map[string][]string{}
	}
	r.kept[next] = regs
	return next
}
func (*retainingObserver) Decide(string) (int, bool) { return 0, false }

// modifyingObserver blanks the view it scanned.
type modifyingObserver struct{}

func (modifyingObserver) Name() string                 { return "modifying-sm" }
func (modifyingObserver) Init(n, id, input int) string { return "m" }
func (modifyingObserver) WriteValue(s string) string   { return s }
func (modifyingObserver) Observe(s string, regs []string) string {
	clear(regs)
	return s
}
func (modifyingObserver) Decide(string) (int, bool) { return 0, false }

func TestValidateMPCleanProtocols(t *testing.T) {
	for _, p := range []proto.MPProtocol{
		protocols.MPFlood{Phases: 2},
		protocols.MPFullInfo{},
		protocols.MPCoordinator{Phases: 3},
	} {
		if vs := proto.ValidateMP(p, 3, 3); len(vs) != 0 {
			t.Errorf("%s: %d violations, first: %v", p.Name(), len(vs), vs[0])
		}
	}
}

// TestValidateMPCatchesImpureAndRetaining: a Receive that counts its calls
// breaks determinism, one that keeps its inbox (read back by the next Send)
// changes the run once the caller reuses its inbox buffers, one that
// writes to its inbox is caught doing so, and one whose answers depend on
// the (state, inbox) pairs seen before, which the models' model-wide
// Receive memo would freeze at their first answer, changes the run the
// second time round.
func TestValidateMPCatchesImpureAndRetaining(t *testing.T) {
	for _, c := range []struct {
		p    proto.MPProtocol
		n    int
		rule string
	}{
		{&countingReceiver{}, 2, "receive-determinism"},
		{&retainingReceiver{}, 2, "receive-retains-input"},
		{modifyingReceiver{}, 2, "receive-modifies-input"},
		{&historyReceiver{seen: map[string]bool{}}, 3, "receive-retains-input"},
	} {
		rules := map[string]bool{}
		for _, v := range proto.ValidateMP(c.p, c.n, c.n) {
			rules[v.Rule] = true
		}
		if !rules[c.rule] {
			t.Errorf("%s: no %s violation among %v", c.p.Name(), c.rule, rules)
		}
		if c.rule == "receive-retains-input" && len(rules) != 1 {
			t.Errorf("%s: want only %s, got %v", c.p.Name(), c.rule, rules)
		}
	}
}

// countingReceiver appends a global call count to its state on every
// Receive.
type countingReceiver struct{ calls int }

func (*countingReceiver) Name() string                 { return "counting" }
func (*countingReceiver) Init(n, id, input int) string { return "c" }
func (*countingReceiver) Send(s string) []string       { return []string{s, s} }
func (c *countingReceiver) Receive(s string, _ [][]string) string {
	c.calls++
	return s + strings.Repeat("+", c.calls%3)
}
func (*countingReceiver) Decide(string) (int, bool) { return 0, false }

// retainingReceiver keeps each inbox, keyed by the state Receive returns,
// and broadcasts it from that state's Send: pure only as long as no caller
// reuses an inbox.
type retainingReceiver struct{ kept map[string][][]string }

func (*retainingReceiver) Name() string                 { return "retaining" }
func (*retainingReceiver) Init(n, id, input int) string { return proto.Join("r", strconv.Itoa(id)) }
func (r *retainingReceiver) Send(s string) []string {
	msg := s
	for _, msgs := range r.kept[s] {
		msg += strings.Join(msgs, ",")
	}
	return []string{msg, msg}
}
func (r *retainingReceiver) Receive(s string, in [][]string) string {
	fields := []string{s}
	for _, msgs := range in {
		fields = append(fields, msgs...)
	}
	next := proto.Join(fields...)
	if r.kept == nil {
		r.kept = map[string][][]string{}
	}
	r.kept[next] = in
	return next
}
func (*retainingReceiver) Decide(string) (int, bool) { return 0, false }

// historyReceiver tags each Receive result with the number of distinct
// (state, inbox) pairs seen so far: repeating a call at once repeats its
// answer, but a memo shared across source states would freeze the first.
type historyReceiver struct{ seen map[string]bool }

func (*historyReceiver) Name() string                 { return "history" }
func (*historyReceiver) Init(n, id, input int) string { return strconv.Itoa(input) }
func (*historyReceiver) Send(s string) []string       { return []string{s, s, s} }
func (h *historyReceiver) Receive(s string, in [][]string) string {
	fields := []string{s}
	for _, msgs := range in {
		fields = append(fields, proto.Join(msgs...))
	}
	h.seen[proto.Join(fields...)] = true
	return strconv.Itoa(len(h.seen) % 4)
}
func (*historyReceiver) Decide(string) (int, bool) { return 0, false }

// modifyingReceiver consumes its inbox by blanking it.
type modifyingReceiver struct{}

func (modifyingReceiver) Name() string                 { return "modifying" }
func (modifyingReceiver) Init(n, id, input int) string { return strconv.Itoa(id) }
func (modifyingReceiver) Send(s string) []string       { return []string{s, s} }
func (modifyingReceiver) Receive(s string, in [][]string) string {
	for _, msgs := range in {
		for k, m := range msgs {
			s += m
			msgs[k] = ""
		}
	}
	return s
}
func (modifyingReceiver) Decide(string) (int, bool) { return 0, false }
