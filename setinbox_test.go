package layers_test

import (
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/syncmp"
)

// countingFlood is FloodSet with its Deliver calls counted. It keeps
// FloodSet's proto.SetInbox declaration, so its models key the Deliver memo
// by message set.
type countingFlood struct {
	protocols.FloodSet
	calls *atomic.Int64
}

func (c countingFlood) Deliver(s string, in []string) string {
	c.calls.Add(1)
	return c.FloodSet.Deliver(s, in)
}

// vectorFlood forwards a protocol without its proto.SetInbox declaration,
// so its models key the Deliver memo by per-sender message ids.
type vectorFlood struct{ p proto.SyncProtocol }

func (v vectorFlood) Name() string                         { return v.p.Name() }
func (v vectorFlood) Init(n, id, input int) string         { return v.p.Init(n, id, input) }
func (v vectorFlood) Send(s string) []string               { return v.p.Send(s) }
func (v vectorFlood) Deliver(s string, in []string) string { return v.p.Deliver(s, in) }
func (v vectorFlood) Decide(s string) (int, bool)          { return v.p.Decide(s) }

// sameIDGraph asserts two explorations agree on every published field:
// keys, depths, inits, parents and the CSR arrays.
func sameIDGraph(t *testing.T, want, got *core.IDGraph) {
	t.Helper()
	switch {
	case !slices.Equal(want.Keys, got.Keys):
		t.Fatal("Keys differ")
	case !slices.Equal(want.DepthOf, got.DepthOf):
		t.Fatal("DepthOf differs")
	case !slices.Equal(want.Inits, got.Inits):
		t.Fatal("Inits differ")
	case !slices.Equal(want.ParentOf, got.ParentOf):
		t.Fatal("ParentOf differs")
	case !slices.Equal(want.EdgeStart, got.EdgeStart):
		t.Fatal("EdgeStart differs")
	case !slices.Equal(edgeLabels(want), edgeLabels(got)):
		t.Fatal("EdgeAction differs")
	case !slices.Equal(want.EdgeTo, got.EdgeTo):
		t.Fatal("EdgeTo differs")
	}
	for u := range want.Keys {
		_, wa, _ := want.Parent(uint32(u))
		_, ga, _ := got.Parent(uint32(u))
		if wa != ga || want.States[u].Key() != got.States[u].Key() {
			t.Fatalf("node %d: parent action %q or state differs from %q", u, ga, wa)
		}
	}
}

// TestShardedEquivalenceSetInbox: every model built on syncmp.Table
// explores FloodSet, whose Deliver memo is keyed by message set, into the
// graph a twin without the proto.SetInbox declaration (keyed by per-sender
// message ids) explores, at 1 and 2 workers; and the set key runs Deliver
// a few dozen times where the per-sender key ran it thousands of times.
func TestShardedEquivalenceSetInbox(t *testing.T) {
	if _, ok := proto.SyncProtocol(vectorFlood{}).(proto.SetInbox); ok {
		t.Fatal("the vector-keyed twin declares proto.SetInbox")
	}
	for _, tc := range []struct {
		name   string
		rounds int
		mk     func(p proto.SyncProtocol) core.Model
		depth  int
		// maxSet bounds the set-keyed Deliver calls at one worker (0: no
		// bound).
		maxSet int64
	}{
		{"SyncSt n=7 t=2", 3, func(p proto.SyncProtocol) core.Model { return syncmp.NewSt(p, 7, 2) }, 3, 0},
		{"MobileS1 n=7", 3, func(p proto.SyncProtocol) core.Model { return mobile.New(p, 7) }, 3, 100},
		{"MobileS1 n=8", 2, func(p proto.SyncProtocol) core.Model { return mobile.New(p, 8) }, 2, 0},
		{"SyncStGeneral n=4 t=2", 3, func(p proto.SyncProtocol) core.Model { return syncmp.NewStGeneral(p, 4, 2) }, 3, 0},
		{"SyncStMulti n=4 t=2", 3, func(p proto.SyncProtocol) core.Model { return syncmp.NewStMulti(p, 4, 2, 2) }, 3, 0},
		{"MobileFull n=3", 3, func(p proto.SyncProtocol) core.Model { return mobile.NewFull(p, 3) }, 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 2} {
				var setCalls, vecCalls atomic.Int64
				set := countingFlood{protocols.FloodSet{Rounds: tc.rounds}, &setCalls}
				vec := vectorFlood{countingFlood{protocols.FloodSet{Rounds: tc.rounds}, &vecCalls}}
				want, err := core.ExploreIDCtx(nil, tc.mk(vec), tc.depth, 0, w)
				if err != nil {
					t.Fatalf("w=%d vector key: %v", w, err)
				}
				got, err := core.ExploreIDCtx(nil, tc.mk(set), tc.depth, 0, w)
				if err != nil {
					t.Fatalf("w=%d set key: %v", w, err)
				}
				sameIDGraph(t, want, got)
				t.Logf("w=%d: %d states, %d edges; Deliver calls %d (per-sender key) -> %d (set key)",
					w, got.Len(), got.NumEdges(), vecCalls.Load(), setCalls.Load())
				if w == 1 && tc.maxSet > 0 && setCalls.Load() > tc.maxSet {
					t.Errorf("set key ran Deliver %d times, want at most %d", setCalls.Load(), tc.maxSet)
				}
			}
		})
	}
}
