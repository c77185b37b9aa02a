package syncmp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// memoAction is one action handed to a RoundMemo: Omit(j, g), or omitMany
// when many is non-nil.
type memoAction struct {
	j    int
	g    uint64
	many []syncmp.Omission
}

// omit is the action as refNext spells it.
func (a memoAction) omit() map[int]uint64 {
	if a.many != nil {
		out := map[int]uint64{}
		for _, om := range a.many {
			out[om.J] = syncmp.OmitMask(om.K)
		}
		return out
	}
	if a.g == 0 {
		return nil
	}
	return map[int]uint64{a.j: a.g}
}

// randomActions draws count actions on n processes: repeats of the action
// before, the failure-free round under any omitter, a new omission set for
// the same omitter, a multi-omitter action, or any (j, G).
func randomActions(rng *rand.Rand, n, count int) []memoAction {
	var out []memoAction
	for len(out) < count {
		a := memoAction{j: rng.Intn(n), g: uint64(rng.Intn(1 << uint(n)))}
		switch k := rng.Intn(8); {
		case k == 0 && len(out) > 0:
			a = out[len(out)-1]
		case k == 1:
			a.g = 0
		case k == 2 && len(out) > 0:
			a.j = out[len(out)-1].j
		case k == 3:
			for c := 1 + rng.Intn(2); c > 0; c-- {
				a.many = append(a.many, syncmp.Omission{J: rng.Intn(n), K: 1 + rng.Intn(n)})
			}
		}
		out = append(out, a)
	}
	return out
}

// maxOrderActions bounds the actions one source state is given, and
// maxOrderSources the source states one subtest draws from a larger graph.
const (
	maxOrderActions = 4000
	maxOrderSources = 3000
)

// orderModel enumerates, from any source state, its acts through one
// RoundMemo over tab under one failure rule.
type orderModel struct {
	tab  *syncmp.Table
	rule refRule
	acts []memoAction
}

func (d *orderModel) AppendCacheKey(dst []byte, x core.State) []byte {
	return d.tab.AppendCacheKey(dst, x)
}

// Labels labels action i with its index.
func (d *orderModel) Labels() []string {
	labels := make([]string, maxOrderActions)
	for i := range labels {
		labels[i] = strconv.Itoa(i)
	}
	return labels
}

func (d *orderModel) SuccessorsKeyed(x core.State, p core.Prober) {
	r := d.tab.Memo(x.(*syncmp.State), p, d.rule.trackEnv, d.rule.trackEnv, d.rule.general)
	for i, a := range d.acts {
		if a.many != nil {
			r.OmitMany(uint32(i), a.many)
		} else {
			r.Omit(uint32(i), a.j, a.g)
		}
	}
	r.Done()
}

// TestRoundMemoAnyActionOrder drives one RoundMemo per source state, for
// every state to depth 2 of four models at n=3-4, and of the three that
// fail processes at n=5, through a seeded random sequence of actions, and
// checks each successor against the plain reference round: through a
// successor cache and against the zero Prober. The models call their
// actions in one fixed order; this test reaches the incremental
// re-resolution, with its critical-receiver masks under any change of
// omitter, and the reuse of an unchanged successor, from any order. Each
// state gets at least 4 actions and each subtest about 4,000; a graph of
// more than 3,000 states gives a seeded sample of 3,000 sources.
func TestRoundMemoAnyActionOrder(t *testing.T) {
	flood := protocols.FloodSet{Rounds: 2}
	protos := []proto.SyncProtocol{
		flood,
		protocols.DecideRule{P: flood, RuleName: "per-sender", Rule: flood.Decide},
		protocols.EarlyFloodSet{MaxRounds: 3},
		protocols.EIG{Rounds: 2},
	}
	if _, ok := protos[1].(proto.SetInbox); ok {
		t.Fatal("the per-sender FloodSet twin declares proto.SetInbox")
	}
	models := []struct {
		name string
		mk   func(p proto.SyncProtocol, n int) core.Model
		rule refRule
	}{
		{"S1", func(p proto.SyncProtocol, n int) core.Model { return syncmp.NewS1(p, n) }, refRule{trackEnv: true}},
		{"St", func(p proto.SyncProtocol, n int) core.Model { return syncmp.NewSt(p, n, 1) }, refRule{trackEnv: true}},
		{"StGeneral", func(p proto.SyncProtocol, n int) core.Model { return syncmp.NewStGeneral(p, n, 2) },
			refRule{trackEnv: true, general: true}},
		{"mobile/S1", func(p proto.SyncProtocol, n int) core.Model { return mobile.New(p, n) }, refRule{}},
	}
	seed := int64(0)
	for _, n := range []int{3, 4, 5} {
		for _, p := range protos {
			for _, mm := range models {
				if n == 5 && !mm.rule.trackEnv {
					continue // n=5 is for sources with failed processes, which M^mf never has
				}
				seed++
				rng := rand.New(rand.NewSource(seed))
				t.Run(fmt.Sprintf("%s/n=%d/%s", mm.name, n, p.Name()), func(t *testing.T) {
					t.Parallel()
					g, err := core.ExploreIDCtx(nil, mm.mk(p, n), 2, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					srcs := g.States
					if len(srcs) > maxOrderSources {
						srcs = slices.Clone(srcs)
						rng.Shuffle(len(srcs), func(i, j int) { srcs[i], srcs[j] = srcs[j], srcs[i] })
						srcs = srcs[:maxOrderSources]
					}
					d := &orderModel{tab: syncmp.NewTable(p, n), rule: mm.rule}
					c := core.NewKeyedCache(d)
					for _, x := range srcs {
						s := x.(*syncmp.State)
						d.acts = randomActions(rng, n, max(4, maxOrderActions/len(srcs)))
						cached, ids := c.Enumerate(s)
						raw := c.Uncached().Successors(s)
						for i, a := range d.acts {
							want := refNext(p, s, mm.rule, a.omit())
							if err := sameState(raw[i].State.(*syncmp.State), want); err != nil {
								t.Fatalf("%s, action %d of %+v: %v", s.Key(), i, d.acts, err)
							}
							// The cache's state for a key keeps the inputs of the
							// run it was first reached in.
							if cached[i].State.Key() != want.Key() || ids[i] != c.ID(want) {
								t.Fatalf("%s, action %d of %+v: cached %q (id %d), reference %q (id %d)",
									s.Key(), i, d.acts, cached[i].State.Key(), ids[i], want.Key(), c.ID(want))
							}
						}
					}
				})
			}
		}
	}
}
