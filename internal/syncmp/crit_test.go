package syncmp

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/protocols"
)

// TestCriticalReceiversByBruteForce checks the memo's critical receivers
// against their definition, from every state to depth 2 of S1, St and
// StGeneral at n=3-5 and under each failure rule a model hands to Memo:
// to is critical for j exactly when losing j's message, on top of the
// losses every action shares, changes the classes to hears. The classes
// are computed here from the protocol's message strings: the distinct
// non-empty messages heard under a proto.SetInbox protocol, the senders of
// non-empty messages otherwise.
func TestCriticalReceiversByBruteForce(t *testing.T) {
	flood := protocols.FloodSet{Rounds: 2}
	protos := []proto.SyncProtocol{
		flood,
		protocols.DecideRule{P: flood, RuleName: "per-sender", Rule: flood.Decide},
		protocols.EarlyFloodSet{MaxRounds: 3},
		protocols.EIG{Rounds: 2},
	}
	models := []struct {
		name string
		mk   func(p proto.SyncProtocol, n int) core.Model
	}{
		{"S1", func(p proto.SyncProtocol, n int) core.Model { return NewS1(p, n) }},
		{"St", func(p proto.SyncProtocol, n int) core.Model { return NewSt(p, n, 2) }},
		{"StGeneral", func(p proto.SyncProtocol, n int) core.Model { return NewStGeneral(p, n, 2) }},
	}
	// The (record, silenceFailed, generalOmission) rules of S1 and St,
	// StGeneral, and mobile.
	rules := [][3]bool{{true, true, false}, {true, true, true}, {false, false, false}}
	for _, n := range []int{3, 4, 5} {
		for _, p := range protos {
			_, set := p.(proto.SetInbox)
			for _, mm := range models {
				t.Run(fmt.Sprintf("%s/n=%d/%s", mm.name, n, p.Name()), func(t *testing.T) {
					t.Parallel()
					g, err := core.ExploreIDCtx(nil, mm.mk(p, n), 2, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					tab := NewTable(p, n)
					for _, x := range g.States {
						s := x.(*State)
						sends := make([][]string, n)
						for i, l := range s.locals {
							sends[i] = p.Send(l)
						}
						// heard names the classes to hears when it loses the
						// messages of the senders in lost.
						heard := func(to int, lost uint64) []string {
							var cls []string
							for i := 0; i < n; i++ {
								if i == to || lost&(1<<uint(i)) != 0 || to >= len(sends[i]) || sends[i][to] == "" {
									continue
								}
								if set {
									cls = append(cls, sends[i][to])
								} else {
									cls = append(cls, strconv.Itoa(i))
								}
							}
							slices.Sort(cls)
							return slices.Compact(cls)
						}
						for _, rule := range rules {
							r := tab.Memo(s, core.Prober{}, rule[0], rule[1], rule[2])
							for to := 0; to < n; to++ {
								var base uint64
								if rule[1] {
									base = s.failed
								}
								if rule[2] && s.failed&(1<<uint(to)) != 0 {
									base = 1<<uint(n) - 1
								}
								shared := heard(to, base)
								for j := 0; j < n; j++ {
									lost := base | 1<<uint(j)
									want := lost != base && !slices.Equal(shared, heard(to, lost))
									if got := r.crit[j]&(1<<uint(to)) != 0; got != want {
										t.Fatalf("%s, rule %v: receiver %d critical for %d: %v, brute force %v", s.Key(), rule, to, j, got, want)
									}
								}
							}
							r.Done()
						}
					}
				})
			}
		}
	}
}
