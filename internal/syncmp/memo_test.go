package syncmp_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// refSucc is one successor of the plain reference enumeration.
type refSucc struct {
	action string
	state  *syncmp.State
}

// refRule is a model's failure rule, spelled out for the reference.
type refRule struct {
	trackEnv bool // failures are recorded and failed processes silenced
	general  bool // failed processes also lose their incoming messages
	budget   int  // at most this many failures (0: no new failures once reached)
}

// refNext is one action by plain syncmp.Round + syncmp.NewState: the
// processes in omit lose their messages to the receivers in omit[j], and
// are recorded as failed when the rule tracks failures.
func refNext(p proto.SyncProtocol, x *syncmp.State, rule refRule, omit map[int]uint64) *syncmp.State {
	failed := x.Failed()
	drop := func(from, to int) bool {
		if rule.trackEnv && failed&(1<<uint(from)) != 0 {
			return true
		}
		if rule.general && failed&(1<<uint(to)) != 0 {
			return true
		}
		return omit[from]&(1<<uint(to)) != 0
	}
	next := syncmp.Round(p, x.Locals(), drop)
	if rule.trackEnv {
		for j := range omit {
			failed |= 1 << uint(j)
		}
	}
	inputs := make([]int, x.N())
	for i := range inputs {
		inputs[i] = x.InputOf(i)
	}
	return syncmp.NewState(p, x.Round()+1, next, failed, rule.trackEnv, inputs)
}

// refPrefix enumerates noop plus every combination of up to perRound new
// prefix omissions (j,[k]) by non-failed processes within the rule's
// budget, labeled as the models label them.
func refPrefix(p proto.SyncProtocol, x *syncmp.State, rule refRule, perRound int) []refSucc {
	out := []refSucc{{"noop", refNext(p, x, rule, nil)}}
	limit := perRound
	if rule.budget > 0 {
		limit = min(limit, rule.budget-x.FailedCount())
	}
	var build func(start int, labels []string, omit map[int]uint64)
	build = func(start int, labels []string, omit map[int]uint64) {
		if len(labels) > 0 {
			out = append(out, refSucc{strings.Join(labels, "+"), refNext(p, x, rule, omit)})
		}
		if len(labels) >= limit {
			return
		}
		for j := start; j < x.N(); j++ {
			if x.FailedAt(j) {
				continue
			}
			for k := 1; k <= x.N(); k++ {
				next := map[int]uint64{j: syncmp.OmitMask(k)}
				for i, m := range omit {
					next[i] = m
				}
				build(j+1, append(append([]string(nil), labels...), fmt.Sprintf("(%d,[%d])", j, k)), next)
			}
		}
	}
	build(0, nil, nil)
	return out
}

// refFull enumerates M^mf's noop plus every (j, G) with G non-empty.
func refFull(p proto.SyncProtocol, x *syncmp.State) []refSucc {
	n := x.N()
	out := []refSucc{{"noop", refNext(p, x, refRule{}, nil)}}
	for j := 0; j < n; j++ {
		for g := uint64(1); g < 1<<uint(n); g++ {
			out = append(out, refSucc{fmt.Sprintf("(%d,G=%0*b)", j, n, g), refNext(p, x, refRule{}, map[int]uint64{j: g})})
		}
	}
	return out
}

// memoModel is a model under test with its reference enumeration.
type memoModel struct {
	m   interface{ Uncached() core.Successor }
	ref func(x *syncmp.State) []refSucc
}

func memoModels(p proto.SyncProtocol, n int) map[string]memoModel {
	st := refRule{trackEnv: true, budget: 1}
	gen := refRule{trackEnv: true, general: true, budget: 2}
	multi := refRule{trackEnv: true, budget: 2}
	return map[string]memoModel{
		"S1":          {syncmp.NewS1(p, n), func(x *syncmp.State) []refSucc { return refPrefix(p, x, refRule{trackEnv: true}, 1) }},
		"St":          {syncmp.NewSt(p, n, 1), func(x *syncmp.State) []refSucc { return refPrefix(p, x, st, 1) }},
		"StGeneral":   {syncmp.NewStGeneral(p, n, 2), func(x *syncmp.State) []refSucc { return refPrefix(p, x, gen, 1) }},
		"StMulti":     {syncmp.NewStMulti(p, n, 2, 2), func(x *syncmp.State) []refSucc { return refPrefix(p, x, multi, 2) }},
		"mobile/S1":   {mobile.New(p, n), func(x *syncmp.State) []refSucc { return refPrefix(p, x, refRule{}, 1) }},
		"mobile/Full": {mobile.NewFull(p, n), func(x *syncmp.State) []refSucc { return refFull(p, x) }},
	}
}

// sameState compares everything a state exposes.
func sameState(a, b *syncmp.State) error {
	if a.Key() != b.Key() {
		return fmt.Errorf("key %q, reference %q", a.Key(), b.Key())
	}
	if fmt.Sprint(a.Locals()) != fmt.Sprint(b.Locals()) || a.Round() != b.Round() || a.Failed() != b.Failed() {
		return fmt.Errorf("locals/round/failed %q/%d/%b, reference %q/%d/%b",
			a.Locals(), a.Round(), a.Failed(), b.Locals(), b.Round(), b.Failed())
	}
	for i := 0; i < a.N(); i++ {
		av, aok := a.Decided(i)
		bv, bok := b.Decided(i)
		if av != bv || aok != bok || a.FailedAt(i) != b.FailedAt(i) || a.InputOf(i) != b.InputOf(i) {
			return fmt.Errorf("process %d: decided (%d,%v) failed %v input %d, reference (%d,%v) %v %d",
				i, av, aok, a.FailedAt(i), a.InputOf(i), bv, bok, b.FailedAt(i), b.InputOf(i))
		}
	}
	return nil
}

// TestRoundMemoMatchesRound checks every memoized model's raw successors,
// from every state up to depth 2, against the plain single-action
// reference: the same actions in the same order, and states equal in key,
// locals, decisions and failed sets.
func TestRoundMemoMatchesRound(t *testing.T) {
	fullInfoRule := protocols.DecideRule{
		P:        protocols.FullInfo{},
		RuleName: "parity",
		Rule: func(s string) (int, bool) {
			if strings.HasPrefix(s, "1:V") {
				return len(s) % 2, true
			}
			return 0, false
		},
	}
	protos := []proto.SyncProtocol{
		protocols.FloodSet{Rounds: 2},
		protocols.EarlyFloodSet{MaxRounds: 3},
		protocols.EIG{Rounds: 2},
		fullInfoRule,
		protocols.ConstantDecider{Value: 2},
		protocols.FlickerDecider{},
	}
	for _, n := range []int{3, 4} {
		for _, p := range protos {
			for name, mm := range memoModels(p, n) {
				if n == 4 && name == "mobile/Full" && p.Name() == fullInfoRule.Name() {
					continue // 61 actions on full-information views: slow, and covered at n=3
				}
				t.Run(fmt.Sprintf("%s/n=%d/%s", name, n, p.Name()), func(t *testing.T) {
					checkMemoModel(t, mm, n)
				})
			}
		}
	}
}

// TestRoundMemoMatchesRoundAtMemoSize runs the same check on the coldbench
// sync_lowerbound and mobile_refute models, where the model-wide Deliver
// memo answers most lookups from other source states.
func TestRoundMemoMatchesRoundAtMemoSize(t *testing.T) {
	p := protocols.FloodSet{Rounds: 3}
	models := memoModels(p, 7)
	st := refRule{trackEnv: true, budget: 2}
	models["St"] = memoModel{syncmp.NewSt(p, 7, 2), func(x *syncmp.State) []refSucc { return refPrefix(p, x, st, 1) }}
	for _, name := range []string{"St", "mobile/S1"} {
		t.Run(name, func(t *testing.T) { checkMemoModel(t, models[name], 7) })
	}
}

func checkMemoModel(t *testing.T, mm memoModel, n int) {
	raw := mm.m.Uncached()
	var frontier []*syncmp.State
	for a := 0; a < 1<<uint(n); a++ {
		in := make([]int, n)
		for i := range in {
			in[i] = (a >> uint(i)) & 1
		}
		switch m := mm.m.(type) {
		case *syncmp.Model:
			frontier = append(frontier, m.Initial(in))
		case *syncmp.MultiModel:
			frontier = append(frontier, m.Initial(in))
		case *mobile.Model:
			frontier = append(frontier, m.Initial(in))
		case *mobile.FullModel:
			frontier = append(frontier, m.Initial(in))
		}
	}
	for depth := 0; depth < 2; depth++ {
		seen := map[string]bool{}
		var next []*syncmp.State
		for _, x := range frontier {
			got, want := raw.Successors(x), mm.ref(x)
			if len(got) != len(want) {
				t.Fatalf("depth %d %s: %d successors, reference %d", depth, x.Key(), len(got), len(want))
			}
			for i := range got {
				y := got[i].State.(*syncmp.State)
				if got[i].Action != want[i].action {
					t.Fatalf("depth %d successor %d: action %q, reference %q", depth, i, got[i].Action, want[i].action)
				}
				if err := sameState(y, want[i].state); err != nil {
					t.Fatalf("depth %d action %s: %v", depth, got[i].Action, err)
				}
				if !seen[y.Key()] {
					seen[y.Key()] = true
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
}

// TestApplyActionIsOneActionMemo pins the single-action entry points to
// the reference round.
func TestApplyActionIsOneActionMemo(t *testing.T) {
	p := protocols.EarlyFloodSet{MaxRounds: 3}
	m := syncmp.NewSt(p, 4, 2)
	x := m.Initial([]int{0, 1, 1, 0})
	y := syncmp.ApplyAction(p, x, 1, syncmp.OmitMask(3), true, true)
	rule := refRule{trackEnv: true}
	if err := sameState(y, refNext(p, x, rule, map[int]uint64{1: syncmp.OmitMask(3)})); err != nil {
		t.Fatal(err)
	}
	z := syncmp.ApplyActionMode(p, y, 2, syncmp.OmitMask(4), true, true, true)
	rule.general = true
	if err := sameState(z, refNext(p, y, rule, map[int]uint64{2: syncmp.OmitMask(4)})); err != nil {
		t.Fatal(err)
	}
	mm := syncmp.NewStMulti(p, 4, 3, 3)
	oms := []syncmp.Omission{{J: 0, K: 2}, {J: 3, K: 4}}
	w := mm.ApplyMulti(y, oms)
	rule.general = false
	if err := sameState(w, refNext(p, y, rule, map[int]uint64{0: syncmp.OmitMask(2), 3: syncmp.OmitMask(4)})); err != nil {
		t.Fatal(err)
	}
	// M^mf's action (2, G=1011), picked by its label.
	full := mobile.NewFull(p, 4)
	mx := full.Initial([]int{1, 0, 0, 1})
	var mz *syncmp.State
	for _, s := range full.Successors(mx) {
		if s.Action == "(2,G=1011)" {
			mz = s.State.(*syncmp.State)
		}
	}
	if err := sameState(mz, refNext(p, mx, refRule{}, map[int]uint64{2: 0b1011})); err != nil {
		t.Fatal(err)
	}
}
