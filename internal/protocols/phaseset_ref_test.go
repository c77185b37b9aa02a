package protocols

import (
	"slices"
	"strconv"
	"testing"

	"repro/internal/proto"
)

// The straightforward "phase | W" parser and the flooding protocols' steps
// built on it, as FloodSet, SMVote and MPFlood had them before the shared
// allocation-free parser: FuzzPhaseSet pins the production code to them on
// every input, malformed ones included.

func refParsePhaseSet(state string) (phase int, w []int) {
	fields, err := proto.Split(state)
	if err != nil || len(fields) != 2 {
		return 0, nil
	}
	phase, err = strconv.Atoi(fields[0])
	if err != nil {
		return 0, nil
	}
	w, err = proto.DecodeIntSet(fields[1])
	if err != nil {
		return phase, nil
	}
	return phase, w
}

// refUnion is the old message loop: a malformed message is skipped whole.
func refUnion(w []int, msgs []string) []int {
	for _, m := range msgs {
		if m == "" {
			continue
		}
		vs, err := proto.DecodeIntSet(m)
		if err != nil {
			continue
		}
		w = append(w, vs...)
	}
	return w
}

func refStep(state string, msgs []string) string {
	phase, w := refParsePhaseSet(state)
	return proto.Join(strconv.Itoa(phase+1), proto.EncodeIntSet(refUnion(w, msgs)))
}

func refDecide(state string, bound int) (int, bool) {
	phase, w := refParsePhaseSet(state)
	if phase < bound || len(w) == 0 {
		return 0, false
	}
	return slices.Min(w), true
}

// FuzzPhaseSet: the shared parser decodes every state to the reference's
// (phase, W), and FloodSet, SMVote and MPFlood send, step and decide
// exactly as the reference does — a malformed message or register value is
// still skipped whole.
func FuzzPhaseSet(f *testing.F) {
	f.Add("1:22:0,1", "1,2", "")
	f.Add("1:01:1", "3:0,1", "x")
	f.Add("", "", "1,")
	f.Add("1:x1:0", "-1", "+2,007")
	f.Add("1:31:0extra", ",", "9223372036854775808")
	f.Add("2:-11:5", "1,1,0", "0:")
	f.Add("+1:2-0:", "2,1", "1, 2")
	f.Fuzz(func(t *testing.T, state, m1, m2 string) {
		var buf [2]int // small, so longer sets exercise the spill
		phase, w := parsePhaseSet(state, buf[:0])
		wantPhase, wantW := refParsePhaseSet(state)
		if phase != wantPhase || !slices.Equal(w, wantW) {
			t.Fatalf("parsePhaseSet(%q) = %d, %v; reference %d, %v", state, phase, w, wantPhase, wantW)
		}
		msgs := []string{m1, "", m2}
		want := refStep(state, msgs)
		fs, sv, mf := FloodSet{Rounds: 2}, SMVote{Phases: 2}, MPFlood{Phases: 2}
		if got := fs.Deliver(state, msgs); got != want {
			t.Fatalf("FloodSet.Deliver(%q, %q) = %q; reference %q", state, msgs, got, want)
		}
		if got := sv.Observe(state, msgs); got != want {
			t.Fatalf("SMVote.Observe(%q, %q) = %q; reference %q", state, msgs, got, want)
		}
		if got := mf.Receive(state, [][]string{{m1}, nil, {m2}}); got != want {
			t.Fatalf("MPFlood.Receive(%q, %q) = %q; reference %q", state, msgs, got, want)
		}
		msg := proto.EncodeIntSet(wantW)
		if got := fs.Send(state)[0]; got != msg {
			t.Fatalf("FloodSet.Send(%q) = %q; reference %q", state, got, msg)
		}
		if got := mf.Send(state)[1]; got != msg {
			t.Fatalf("MPFlood.Send(%q) = %q; reference %q", state, got, msg)
		}
		if got := sv.WriteValue(state); got != msg {
			t.Fatalf("SMVote.WriteValue(%q) = %q; reference %q", state, got, msg)
		}
		for _, d := range []interface{ Decide(string) (int, bool) }{fs, sv, mf} {
			v, ok := d.Decide(state)
			wv, wok := refDecide(state, 2)
			if v != wv || ok != wok {
				t.Fatalf("%T.Decide(%q) = %d, %v; reference %d, %v", d, state, v, ok, wv, wok)
			}
		}
	})
}

// TestPhaseSetStepsAllocateOnlyResults: with the shared parser, a FloodSet
// step allocates only its result (the encoded set and the state) and a
// decision allocates nothing.
func TestPhaseSetStepsAllocateOnlyResults(t *testing.T) {
	fs := FloodSet{Rounds: 2}
	state := fs.Deliver(fs.Init(3, 0, 1), []string{"0", "", "0,1"})
	in := []string{"1", "0,1", ""}
	if got := testing.AllocsPerRun(100, func() { fs.Deliver(state, in) }); got > 2 {
		t.Errorf("FloodSet.Deliver: %.0f allocs, want at most 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { fs.Decide(state) }); got != 0 {
		t.Errorf("FloodSet.Decide: %.0f allocs, want 0", got)
	}
}
