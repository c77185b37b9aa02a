package proto

import (
	"fmt"
	"slices"
)

// Violation describes one conformance problem found by a validator.
type Violation struct {
	// Rule names the violated requirement.
	Rule string
	// Detail describes the concrete instance.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// ValidateSync checks a synchronous protocol's contract on small vectors
// so authors catch breakage before handing the protocol to the analysis
// engine:
//
//   - Init determinism: equal (n, id, input) give equal states;
//   - Send/Deliver determinism and purity (same inputs, same outputs);
//   - Send vector length covers all destinations;
//   - write-once decisions along failure-free rounds;
//   - decision stability: once decided, Deliver preserves the value.
//
// It runs the protocol for `rounds` failure-free rounds on every binary
// input assignment for n processes and returns all violations found.
// Besides the checks above it runs every assignment a second time the way
// the synchronous models' memos call Deliver — every inbox in one reused
// buffer that is overwritten after each call, receivers in reverse order,
// after the first run has made every call once — and reports a protocol
// whose run then changes: it keeps or modifies its inbox, or its answers
// depend on the calls made before (the models share one Deliver result
// among every source state that presents the same local state and inbox).
// A Deliver that writes to its inbox is also reported directly. For a
// protocol that declares SetInbox it also reruns each Deliver on the
// reversed inbox and on the inbox with every repeated message blanked, and
// reports a result that differs (the models then share one Deliver result
// among all inboxes with the same message set).
func ValidateSync(p SyncProtocol, n, rounds int) []Violation {
	var out []Violation
	report := func(rule, format string, args ...any) {
		out = append(out, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	for a := 0; a < 1<<uint(n); a++ {
		clean := runSync(p, n, rounds, a, report)
		if reused := runSync(p, n, rounds, a, nil); !equalStrings(reused, clean) {
			report("deliver-history", "inputs %0*b: the run changes when Deliver's inbox buffer is reused and receivers run in reverse order", n, a)
		}
	}
	return out
}

// runSync runs ValidateSync's rounds from input assignment a and returns
// every local state the run passes through, in process order. With report
// set it hands Deliver fresh inboxes and reports contract violations; with
// report nil it runs the receivers in reverse order through one reused
// inbox buffer, overwritten after each call.
func runSync(p SyncProtocol, n, rounds, a int, report func(rule, format string, args ...any)) []string {
	check := report != nil
	locals := make([]string, n)
	decided := make([]int, n)
	for i := range locals {
		input := (a >> uint(i)) & 1
		locals[i] = p.Init(n, i, input)
		if check && p.Init(n, i, input) != locals[i] {
			report("init-determinism", "Init(%d,%d,%d) differs across calls", n, i, input)
		}
		decided[i] = -1
		if v, ok := p.Decide(locals[i]); ok {
			decided[i] = v
		}
	}
	trace := append([]string(nil), locals...)
	in := make([]string, n)
	for r := 0; r < rounds; r++ {
		sends := make([][]string, n)
		for i, l := range locals {
			sends[i] = p.Send(l)
			if !check {
				continue
			}
			if again := p.Send(l); !equalStrings(again, sends[i]) {
				report("send-determinism", "inputs %0*b round %d process %d", n, a, r, i)
			}
			if len(sends[i]) < n {
				report("send-length", "inputs %0*b round %d process %d: %d < n=%d",
					n, a, r, i, len(sends[i]), n)
			}
		}
		next := make([]string, n)
		for k := 0; k < n; k++ {
			j := k
			if !check {
				j = n - 1 - k
			} else {
				in = make([]string, n)
			}
			fillSyncInbox(in, sends, j)
			next[j] = p.Deliver(locals[j], in)
			if !check {
				for i := range in {
					in[i] = clobbered
				}
				continue
			}
			fresh := make([]string, n)
			fillSyncInbox(fresh, sends, j)
			if !equalStrings(in, fresh) {
				report("deliver-modifies-input", "inputs %0*b round %d process %d", n, a, r, j)
			}
			if again := p.Deliver(locals[j], fresh); again != next[j] {
				report("deliver-determinism", "inputs %0*b round %d process %d", n, a, r, j)
			}
			if _, ok := p.(SetInbox); ok {
				rev := slices.Clone(fresh)
				slices.Reverse(rev)
				if p.Deliver(locals[j], rev) != next[j] {
					report("set-inbox", "inputs %0*b round %d process %d: Deliver differs on the reversed inbox", n, a, r, j)
				}
				if p.Deliver(locals[j], blankRepeats(fresh)) != next[j] {
					report("set-inbox", "inputs %0*b round %d process %d: Deliver differs once repeated messages are blanked", n, a, r, j)
				}
			}
			v, ok := p.Decide(next[j])
			switch {
			case decided[j] >= 0 && (!ok || v != decided[j]):
				report("write-once", "inputs %0*b round %d process %d: %d then (%d,%v)",
					n, a, r, j, decided[j], v, ok)
			case decided[j] < 0 && ok:
				decided[j] = v
			}
		}
		locals = next
		trace = append(trace, locals...)
	}
	return trace
}

// fillSyncInbox sets in to receiver j's inbox for the round's sends: in[i]
// is i's message to j, "" for j itself or a missing message.
func fillSyncInbox(in []string, sends [][]string, j int) {
	for i := range in {
		in[i] = ""
		if i != j && j < len(sends[i]) {
			in[i] = sends[i][j]
		}
	}
}

// blankRepeats returns a copy of in that keeps the first copy of each
// message and blanks the others.
func blankRepeats(in []string) []string {
	out := make([]string, len(in))
	seen := make(map[string]bool, len(in))
	for i, m := range in {
		if !seen[m] {
			seen[m] = true
			out[i] = m
		}
	}
	return out
}

// ValidateSM is ValidateSync's analogue for shared-memory protocols: it
// runs `phases` all-write-then-all-read rounds on every binary input
// assignment. Besides the determinism and write-once checks, it runs every
// assignment a second time the way the shared-memory models call Observe —
// every scan in one reused view buffer that is overwritten after each call,
// after the first run has made every call once — and reports a protocol
// whose run then changes: it keeps or modifies its view, or its answers
// depend on the calls made before (the models share one Observe result
// among every source state and action that presents the same local state
// and memory). An Observe that writes to its view is also reported
// directly.
func ValidateSM(p SMProtocol, n, phases int) []Violation {
	var out []Violation
	report := func(rule, format string, args ...any) {
		out = append(out, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	for a := 0; a < 1<<uint(n); a++ {
		clean := runSM(p, n, phases, a, report)
		if reused := runSM(p, n, phases, a, nil); !equalStrings(reused, clean) {
			report("observe-retains-input", "inputs %0*b: the run changes when Observe's view buffer is reused", n, a)
		}
	}
	return out
}

// runSM runs ValidateSM's phases from input assignment a and returns every
// local state the run passes through. With report set it hands Observe
// fresh views and reports contract violations; with report nil it hands
// Observe one reused view, overwritten after each call.
func runSM(p SMProtocol, n, phases, a int, report func(rule, format string, args ...any)) []string {
	check := report != nil
	locals, regs, view := make([]string, n), make([]string, n), make([]string, n)
	decided := make([]int, n)
	for i := range locals {
		locals[i], decided[i] = p.Init(n, i, (a>>uint(i))&1), -1
	}
	trace := slices.Clone(locals)
	for r := 0; r < phases; r++ {
		for i, l := range locals {
			v := p.WriteValue(l)
			if check && p.WriteValue(l) != v {
				report("write-determinism", "inputs %0*b phase %d process %d", n, a, r, i)
			}
			if v != "" {
				regs[i] = v
			}
		}
		for i, l := range locals {
			if check {
				view = slices.Clone(regs)
			} else {
				copy(view, regs)
			}
			locals[i] = p.Observe(l, view)
			if !check {
				for j := range view {
					view[j] = clobbered
				}
				continue
			}
			if !equalStrings(view, regs) {
				report("observe-modifies-input", "inputs %0*b phase %d process %d", n, a, r, i)
			}
			if again := p.Observe(l, slices.Clone(regs)); again != locals[i] {
				report("observe-determinism", "inputs %0*b phase %d process %d", n, a, r, i)
			}
			v, ok := p.Decide(locals[i])
			switch {
			case decided[i] >= 0 && (!ok || v != decided[i]):
				report("write-once", "inputs %0*b phase %d process %d", n, a, r, i)
			case decided[i] < 0 && ok:
				decided[i] = v
			}
		}
		trace = append(trace, locals...)
	}
	return trace
}

// ValidateMP is ValidateSync's analogue for message-passing protocols: it
// runs `rounds` rounds on every binary input assignment, in each of which
// every process sends from its pre-round state and then receives the
// messages sent to it that round. Besides the determinism, send-length and
// write-once checks, it runs every assignment a second time the way the
// asynchronous models call Receive — all inboxes in one reused buffer that
// is overwritten after each call, after the first run has made every call
// once — and reports a protocol whose run then changes: it keeps or
// modifies its inbox, or its answers depend on the calls made before (the
// models share one Receive result among every source state, in either
// layering, that presents the same local state and inbox). A Receive that
// writes to its inbox is also reported directly.
func ValidateMP(p MPProtocol, n, rounds int) []Violation {
	var out []Violation
	report := func(rule, format string, args ...any) {
		out = append(out, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	for a := 0; a < 1<<uint(n); a++ {
		clean := runMP(p, n, rounds, a, report)
		if reused := runMP(p, n, rounds, a, nil); !equalStrings(reused, clean) {
			report("receive-retains-input", "inputs %0*b: the run changes when inbox buffers are reused", n, a)
		}
	}
	return out
}

// clobbered overwrites a reused inbox buffer after each Receive.
const clobbered = "\x00clobbered"

// runMP runs ValidateMP's rounds from input assignment a and returns every
// local state the run passes through. With report set it hands Receive
// fresh inboxes and reports contract violations; with report nil it hands
// Receive one reused buffer, overwritten after each call.
func runMP(p MPProtocol, n, rounds, a int, report func(rule, format string, args ...any)) []string {
	check := report != nil
	locals := make([]string, n)
	decided := make([]int, n)
	for i := range locals {
		input := (a >> uint(i)) & 1
		locals[i] = p.Init(n, i, input)
		if check && p.Init(n, i, input) != locals[i] {
			report("init-determinism", "Init(%d,%d,%d) differs across calls", n, i, input)
		}
		decided[i] = -1
		if v, ok := p.Decide(locals[i]); ok {
			decided[i] = v
		}
	}
	trace := append([]string(nil), locals...)
	in, cells := make([][]string, n), make([]string, n)
	for r := 0; r < rounds; r++ {
		sends := make([][]string, n)
		for i, l := range locals {
			sends[i] = p.Send(l)
			if !check {
				continue
			}
			if again := p.Send(l); !equalStrings(again, sends[i]) {
				report("send-determinism", "inputs %0*b round %d process %d", n, a, r, i)
			}
			if len(sends[i]) < n {
				report("send-length", "inputs %0*b round %d process %d: %d < n=%d", n, a, r, i, len(sends[i]), n)
			}
		}
		next := make([]string, n)
		for i := range locals {
			if check {
				in, cells = make([][]string, n), make([]string, n)
			}
			fillInbox(in, cells, sends, i)
			next[i] = p.Receive(locals[i], in)
			if !check {
				for j := range cells {
					cells[j], in[j] = clobbered, cells[j:j+1]
				}
				continue
			}
			fresh := make([][]string, n)
			fillInbox(fresh, make([]string, n), sends, i)
			for j := range in {
				if !equalStrings(in[j], fresh[j]) {
					report("receive-modifies-input", "inputs %0*b round %d process %d", n, a, r, i)
					break
				}
			}
			if again := p.Receive(locals[i], fresh); again != next[i] {
				report("receive-determinism", "inputs %0*b round %d process %d", n, a, r, i)
			}
			v, ok := p.Decide(next[i])
			switch {
			case decided[i] >= 0 && (!ok || v != decided[i]):
				report("write-once", "inputs %0*b round %d process %d: %d then (%d,%v)",
					n, a, r, i, decided[i], v, ok)
			case decided[i] < 0 && ok:
				decided[i] = v
			}
		}
		locals = next
		trace = append(trace, locals...)
	}
	return trace
}

// fillInbox sets in to receiver i's inbox for the round's sends: in[j] is
// j's message to i, held in cells[j], or nil if there is none.
func fillInbox(in [][]string, cells []string, sends [][]string, i int) {
	for j := range in {
		in[j] = nil
		if j != i && i < len(sends[j]) && sends[j][i] != "" {
			cells[j] = sends[j][i]
			in[j] = cells[j : j+1 : j+1]
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
