package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/resilient"
)

// idGraphsIdentical asserts two dense graphs are bit-identical in every
// deterministic field: node numbering, keys, depths, layers, inits, CSR
// edges, and discovery parents (checked through PathTo).
func idGraphsIdentical(t *testing.T, want, got *core.IDGraph) {
	t.Helper()
	if !reflect.DeepEqual(want.Keys, got.Keys) {
		t.Fatal("Keys differ")
	}
	if !reflect.DeepEqual(want.DepthOf, got.DepthOf) {
		t.Fatal("DepthOf differs")
	}
	if !reflect.DeepEqual(want.Inits, got.Inits) {
		t.Fatal("Inits differ")
	}
	if !reflect.DeepEqual(want.EdgeStart, got.EdgeStart) {
		t.Fatal("EdgeStart differs")
	}
	if !reflect.DeepEqual(want.EdgeAction, got.EdgeAction) {
		t.Fatal("EdgeAction differs")
	}
	if !reflect.DeepEqual(want.EdgeTo, got.EdgeTo) {
		t.Fatal("EdgeTo differs")
	}
	for d := 0; d <= want.ReachedDepth(); d++ {
		if !reflect.DeepEqual(want.Layer(d), got.Layer(d)) {
			t.Fatalf("layer %d differs", d)
		}
	}
	for u := 0; u < want.Len(); u++ {
		if want.Keys[u] != got.States[u].Key() {
			t.Fatalf("node %d state key diverged after restore", u)
		}
	}
	last := uint32(want.Len() - 1)
	wp, gp := want.PathTo(last), got.PathTo(last)
	if wp.Init.Key() != gp.Init.Key() || len(wp.Steps) != len(gp.Steps) {
		t.Fatal("discovery path to last node differs")
	}
	for i := range wp.Steps {
		if wp.Steps[i].Action != gp.Steps[i].Action || wp.Steps[i].State.Key() != gp.Steps[i].State.Key() {
			t.Fatalf("discovery path step %d differs", i)
		}
	}
}

func newCkptModel() core.Model { return mobile.New(protocols.FloodSet{Rounds: 2}, 3) }

// roundTrip persists the checkpoint attached to err through the binary
// container and returns a context carrying it for resume.
func roundTrip(t *testing.T, err error) *resilient.Ctx {
	t.Helper()
	ck, ok := resilient.CheckpointFrom(err)
	if !ok {
		t.Fatalf("no checkpoint attached to %v", err)
	}
	sections, serr := ck.Sections()
	if serr != nil {
		t.Fatal(serr)
	}
	var buf bytes.Buffer
	if werr := resilient.WriteSections(&buf, sections); werr != nil {
		t.Fatal(werr)
	}
	back, rerr := resilient.ReadSections(&buf)
	if rerr != nil {
		t.Fatal(rerr)
	}
	ctx := resilient.Background()
	ctx.SetResume(back)
	return ctx
}

// TestExploreCheckpointResumeEveryLayer interrupts exploration at every
// layer boundary in turn (via the explore.layer chaos point), persists the
// checkpoint through the binary container, resumes against a fresh model
// instance (fresh cache — a new process), and asserts the finished graph is
// bit-identical to an uninterrupted run's.
func TestExploreCheckpointResumeEveryLayer(t *testing.T) {
	const depth = 3
	full, err := core.ExploreID(newCkptModel(), depth, 0)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < depth; cut++ {
		for _, workers := range []int{1, 4} {
			chaos.Arm(chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: uint64(cut + 1), Kind: chaos.KindCancel}))
			partial, perr := core.ExploreIDCtx(nil, newCkptModel(), depth, 0, workers)
			chaos.Disarm()
			if !errors.Is(perr, resilient.ErrPartial) {
				t.Fatalf("cut=%d workers=%d: err = %v, want ErrPartial family", cut, workers, perr)
			}
			if partial.ReachedDepth() > cut {
				t.Fatalf("cut=%d: partial graph reached depth %d past the cut", cut, partial.ReachedDepth())
			}
			frontier := partial.Layer(partial.ReachedDepth())
			if len(frontier) == 0 {
				t.Fatalf("cut=%d: interrupted run reports no unresolved frontier", cut)
			}
			ctx := roundTrip(t, perr)
			resumed, rerr := core.ExploreIDCtx(ctx, newCkptModel(), depth, 0, workers)
			if rerr != nil {
				t.Fatalf("cut=%d workers=%d: resume failed: %v", cut, workers, rerr)
			}
			idGraphsIdentical(t, full, resumed)
		}
	}
}

// TestExploreWarmFaultsResumable injects cancel and panic faults into the
// parallel warming workers: the panic must be contained into a
// *resilient.PanicError, both leave a layer-boundary checkpoint, and both
// resume to the uninterrupted graph.
func TestExploreWarmFaultsResumable(t *testing.T) {
	const depth = 3
	full, err := core.ExploreID(newCkptModel(), depth, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []chaos.Kind{chaos.KindCancel, chaos.KindPanic} {
		chaos.Arm(chaos.NewPlan().Set("explore.warm", chaos.Rule{Hit: 1, Kind: kind}))
		_, perr := core.ExploreIDCtx(nil, newCkptModel(), depth, 0, 4)
		chaos.Disarm()
		if !errors.Is(perr, resilient.ErrPartial) {
			t.Fatalf("kind=%v: err = %v, want ErrPartial family", kind, perr)
		}
		if kind == chaos.KindPanic {
			var pe *resilient.PanicError
			if !errors.As(perr, &pe) {
				t.Fatalf("panic fault not contained as PanicError: %v", perr)
			}
		}
		ctx := roundTrip(t, perr)
		resumed, rerr := core.ExploreIDCtx(ctx, newCkptModel(), depth, 0, 4)
		if rerr != nil {
			t.Fatalf("kind=%v: resume failed: %v", kind, rerr)
		}
		idGraphsIdentical(t, full, resumed)
	}
}

// TestExploreCanceledContext covers plain context cancellation (no chaos):
// a pre-canceled context stops before the first layer, the error carries
// both ErrCanceled and ErrPartial, and resume finishes the run.
func TestExploreCanceledContext(t *testing.T) {
	ctx, cancel := resilient.WithCancel()
	cancel()
	partial, err := core.ExploreIDCtx(ctx, newCkptModel(), 2, 0, 1)
	if !errors.Is(err, resilient.ErrCanceled) || !errors.Is(err, resilient.ErrPartial) {
		t.Fatalf("err = %v, want ErrCanceled wrapping ErrPartial", err)
	}
	if partial.ReachedDepth() != 0 {
		t.Fatalf("pre-canceled run reached depth %d", partial.ReachedDepth())
	}
	full, ferr := core.ExploreID(newCkptModel(), 2, 0)
	if ferr != nil {
		t.Fatal(ferr)
	}
	resumed, rerr := core.ExploreIDCtx(roundTrip(t, err), newCkptModel(), 2, 0, 1)
	if rerr != nil {
		t.Fatal(rerr)
	}
	idGraphsIdentical(t, full, resumed)
}

// TestResumeSectionValidation: a resume snapshot for a different run (other
// depth) is ignored — exploration starts fresh and still completes — and a
// corrupted payload fails with ErrBadCheckpoint.
func TestResumeSectionValidation(t *testing.T) {
	chaos.Arm(chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: 2, Kind: chaos.KindCancel}))
	_, perr := core.ExploreIDCtx(nil, newCkptModel(), 3, 0, 1)
	chaos.Disarm()
	ctx := roundTrip(t, perr)
	g, err := core.ExploreIDCtx(ctx, newCkptModel(), 2, 0, 1) // depth 2 != snapshot's 3
	if err != nil {
		t.Fatalf("mismatched snapshot was not ignored: %v", err)
	}
	if ctx.PeekResume(resilient.TagExplore) == nil {
		t.Fatal("mismatched snapshot was consumed")
	}
	full, _ := core.ExploreID(newCkptModel(), 2, 0)
	idGraphsIdentical(t, full, g)

	if _, derr := core.DecodeExploreCheckpoint([]byte{0x01, 0x02}); !errors.Is(derr, resilient.ErrBadCheckpoint) {
		t.Fatalf("corrupt payload: err = %v, want ErrBadCheckpoint", derr)
	}
}

// TestResumeRejectsBadDepths patches the node depths of a real cut's
// explore section three ways — a first depth below 0, a depth past the
// exploration bound, and a depth that decreases as the id grows — and
// requires each section to be rejected with ErrBadCheckpoint, by the
// decoder and by a resuming exploration, without a panic. Any of them
// would otherwise build layers that are not contiguous id runs (or index
// a layer at -1, or allocate 2^28 layer slices).
func TestResumeRejectsBadDepths(t *testing.T) {
	const depth = 3
	chaos.Arm(chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: 2, Kind: chaos.KindCancel}))
	partial, perr := core.ExploreIDCtx(nil, newCkptModel(), depth, 0, 1)
	chaos.Disarm()
	ck, ok := resilient.CheckpointFrom(perr)
	if !ok {
		t.Fatalf("no checkpoint attached to %v", perr)
	}
	sections, err := ck.Sections()
	if err != nil {
		t.Fatal(err)
	}
	dck, err := core.DecodeExploreCheckpoint(sections[0].Data)
	if err != nil {
		t.Fatalf("the unpatched cut must decode: %v", err)
	}
	// The depths follow the model name, the three arguments and the keys,
	// as a length-prefixed little-endian int32 array.
	prefix := resilient.NewEnc(0)
	prefix.Str(dck.Model)
	prefix.Int(dck.Depth)
	prefix.Int(dck.MaxNodes)
	prefix.Int(dck.NextDepth)
	prefix.Strs(partial.Keys)
	prefix.Int(partial.Len())
	at := len(prefix.Bytes())
	last := partial.Len() - 1
	if partial.DepthOf[last] == 0 {
		t.Fatal("the cut's last node is at depth 0; the decreasing patch needs a deeper one")
	}
	for _, u := range []int{0, last} {
		if got := int32(binary.LittleEndian.Uint32(sections[0].Data[at+4*u:])); got != partial.DepthOf[u] {
			t.Fatalf("node %d: depth %d at the computed offset, want %d", u, got, partial.DepthOf[u])
		}
	}
	for _, c := range []struct {
		name  string
		node  int
		depth int32
	}{
		{"first depth -1", 0, -1},
		{"depth 1<<28 past the bound", last, 1 << 28},
		{"decreasing depth", last, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := append([]byte(nil), sections[0].Data...)
			binary.LittleEndian.PutUint32(data[at+4*c.node:], uint32(c.depth))
			if _, derr := core.DecodeExploreCheckpoint(data); !errors.Is(derr, resilient.ErrBadCheckpoint) {
				t.Fatalf("decode: err = %v, want ErrBadCheckpoint", derr)
			}
			ctx := resilient.Background()
			ctx.SetResume([]resilient.Section{{Tag: resilient.TagExplore, Data: data}})
			if _, rerr := core.ExploreIDCtx(ctx, newCkptModel(), depth, 0, 1); !errors.Is(rerr, resilient.ErrBadCheckpoint) {
				t.Fatalf("resume: err = %v, want ErrBadCheckpoint", rerr)
			}
		})
	}
}

// TestBudgetSentinelFamily: ErrNodeBudget keeps its identity under
// errors.Is and now joins the ErrPartial degradation family.
func TestBudgetSentinelFamily(t *testing.T) {
	_, err := core.ExploreID(newCkptModel(), 3, 10)
	if !errors.Is(err, core.ErrNodeBudget) {
		t.Fatalf("err = %v, want ErrNodeBudget", err)
	}
	if !errors.Is(err, resilient.ErrPartial) {
		t.Fatalf("budget error does not wrap resilient.ErrPartial: %v", err)
	}
}

// TestExploreCheckpointMatchesRoots: an explore checkpoint cut from m is
// refused for the same model restricted to some of its initial states —
// same name, depth and budget, other roots — and the run explores fresh;
// a checkpoint written by an earlier build of the same encoding, cut from
// m, still resumes m to the uninterrupted graph, and the cut encodes to
// the same bytes today.
func TestExploreCheckpointMatchesRoots(t *testing.T) {
	const depth = 3
	chaos.Arm(chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: 2, Kind: chaos.KindCancel}))
	_, perr := core.ExploreIDCtx(nil, newCkptModel(), depth, 0, 1)
	chaos.Disarm()

	m := newCkptModel()
	sub := core.WithInits(m, m.Inits()[:1])
	ctx := roundTrip(t, perr)
	g, err := core.ExploreIDCtx(ctx, sub, depth, 0, 1)
	if err != nil {
		t.Fatalf("snapshot of other roots was not ignored: %v", err)
	}
	if ctx.PeekResume(resilient.TagExplore) == nil {
		t.Fatal("snapshot of other roots was consumed")
	}
	fresh, err := core.ExploreID(core.WithInits(newCkptModel(), newCkptModel().Inits()[:1]), depth, 0)
	if err != nil {
		t.Fatal(err)
	}
	idGraphsIdentical(t, fresh, g)

	parent, err := os.ReadFile("testdata/explore-mobile-n3-depth3-cut2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	ck, _ := resilient.CheckpointFrom(perr)
	sections, err := ck.Sections()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := resilient.WriteSections(&buf, sections); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), parent) {
		t.Error("explore checkpoint encoding changed")
	}
	back, err := resilient.ReadSections(bytes.NewReader(parent))
	if err != nil {
		t.Fatal(err)
	}
	ctx = resilient.Background()
	ctx.SetResume(back)
	resumed, err := core.ExploreIDCtx(ctx, newCkptModel(), depth, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.PeekResume(resilient.TagExplore) != nil {
		t.Fatal("stored snapshot was not consumed")
	}
	full, err := core.ExploreID(newCkptModel(), depth, 0)
	if err != nil {
		t.Fatal(err)
	}
	idGraphsIdentical(t, full, resumed)
}
