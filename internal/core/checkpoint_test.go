package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/resilient"
)

// edgeLabels renders g's edge labels, edge by edge: two graphs over
// different caches agree on labels exactly when these do.
func edgeLabels(g *core.IDGraph) []string {
	out := make([]string, g.NumEdges())
	for e := range out {
		out[e] = g.Action(e)
	}
	return out
}

// idGraphsIdentical asserts two dense graphs are bit-identical in every
// deterministic field: depth bound, node numbering, keys, depths, layers,
// inits, CSR edges, and each node's discovery parent and discovery path.
func idGraphsIdentical(t *testing.T, want, got *core.IDGraph) {
	t.Helper()
	if want.Depth != got.Depth || want.ReachedDepth() != got.ReachedDepth() {
		t.Fatalf("depth %d reaching %d, want %d reaching %d", got.Depth, got.ReachedDepth(), want.Depth, want.ReachedDepth())
	}
	if !reflect.DeepEqual(want.ParentOf, got.ParentOf) {
		t.Fatal("ParentOf differs")
	}
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
	if !reflect.DeepEqual(edgeLabels(want), edgeLabels(got)) {
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
		wp, gp := want.PathTo(uint32(u)), got.PathTo(uint32(u))
		if wp.Init.Key() != gp.Init.Key() || len(wp.Steps) != len(gp.Steps) {
			t.Fatalf("discovery path to node %d differs", u)
		}
		for i := range wp.Steps {
			if wp.Steps[i].Action != gp.Steps[i].Action || wp.Steps[i].State.Key() != gp.Steps[i].State.Key() {
				t.Fatalf("discovery path to node %d: step %d differs", u, i)
			}
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
	full, err := core.ExploreIDCtx(nil, newCkptModel(), depth, 0, 1)
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
	full, err := core.ExploreIDCtx(nil, newCkptModel(), depth, 0, 1)
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
	full, ferr := core.ExploreIDCtx(nil, newCkptModel(), 2, 0, 1)
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
	full, _ := core.ExploreIDCtx(nil, newCkptModel(), 2, 0, 1)
	idGraphsIdentical(t, full, g)

	if _, derr := core.DecodeExploreCheckpoint([]byte{0x01, 0x02}); !errors.Is(derr, resilient.ErrBadCheckpoint) {
		t.Fatalf("corrupt payload: err = %v, want ErrBadCheckpoint", derr)
	}
}

// TestResumeRejectsBadDepths patches the depths of a real cut's explore
// section (the bytes of testdata/explore-mobile-n3-depth3-cut2.ckpt, see
// TestExploreCheckpointMatchesRoots: NextDepth 1, 21 nodes, 80 edges) —
// a first depth below 0, a depth past the exploration bound, a depth that
// decreases as the id grows, NextDepth moved to the bound, and the
// depth-1 layer moved to depth 2 with NextDepth 2 — and requires each
// section to be rejected with ErrBadCheckpoint, by the decoder and by a
// resuming exploration, without a panic. Each would otherwise build
// layers that are not contiguous id runs (or index a layer at -1, or
// allocate 2^28 layer slices), or resume into a graph of the wrong shape
// that the model's cache then remembers.
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
	if dck.NextDepth != 1 || partial.Len() != 21 || partial.NumEdges() != 80 {
		t.Fatalf("cut at next depth %d with %d nodes and %d edges, want 1, 21 and 80", dck.NextDepth, partial.Len(), partial.NumEdges())
	}
	// NextDepth follows the model name and two arguments as a one-byte
	// uvarint; the depths follow it and the keys as a length-prefixed
	// little-endian int32 array.
	prefix := resilient.NewEnc(0)
	prefix.Str(dck.Model)
	prefix.Int(dck.Depth)
	prefix.Int(dck.MaxNodes)
	next := len(prefix.Bytes())
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
	setDepth := func(data []byte, u int, d int32) { binary.LittleEndian.PutUint32(data[at+4*u:], uint32(d)) }
	for _, c := range []struct {
		name  string
		patch func(data []byte)
	}{
		{"first depth -1", func(data []byte) { setDepth(data, 0, -1) }},
		{"depth 1<<28 past the bound", func(data []byte) { setDepth(data, last, 1<<28) }},
		{"decreasing depth", func(data []byte) { setDepth(data, last, 0) }},
		{"next depth 3", func(data []byte) { data[next] = 3 }},
		{"depth 1 moved to 2", func(data []byte) {
			data[next] = 2
			for _, u := range partial.Layer(1) {
				setDepth(data, int(u), 2)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := append([]byte(nil), sections[0].Data...)
			c.patch(data)
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
	_, err := core.ExploreIDCtx(nil, newCkptModel(), 3, 10, 1)
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
	fresh, err := core.ExploreIDCtx(nil, core.WithInits(newCkptModel(), newCkptModel().Inits()[:1]), depth, 0, 1)
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
	full, err := core.ExploreIDCtx(nil, newCkptModel(), depth, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	idGraphsIdentical(t, full, resumed)
}

// exploreSection is a decoded explore checkpoint section, field by field,
// so that a test can patch its edges and encode it again.
type exploreSection struct {
	model                    string
	depth, maxNodes, next    int
	keys                     []string
	depthOf                  []int32
	inits, edgeStart, edgeTo []uint32
	labels                   []string
	edgeLabel                []uint32
}

func decodeSection(t *testing.T, data []byte) *exploreSection {
	t.Helper()
	d := resilient.NewDec(data)
	s := &exploreSection{model: d.Str(), depth: d.Int(), maxNodes: d.Int(), next: d.Int(),
		keys: d.Strs(), depthOf: d.I32s(), inits: d.U32s(), edgeStart: d.U32s(), edgeTo: d.U32s(),
		labels: d.Strs(), edgeLabel: d.U32s()}
	if !d.Done() {
		t.Fatalf("explore section does not decode: %v", d.Err())
	}
	return s
}

func (s *exploreSection) encode() []byte {
	e := resilient.NewEnc(0)
	e.Str(s.model)
	e.Int(s.depth)
	e.Int(s.maxNodes)
	e.Int(s.next)
	e.Strs(s.keys)
	e.I32s(s.depthOf)
	e.U32s(s.inits)
	e.U32s(s.edgeStart)
	e.U32s(s.edgeTo)
	e.Strs(s.labels)
	e.U32s(s.edgeLabel)
	return e.Bytes()
}

// TestResumeChecksEnumeratedRows patches the committed explore cut
// (testdata/explore-mobile-n3-depth3-cut2.ckpt) in a row that a resume
// enumerates to re-materialize the nodes it discovers: it swaps two of the
// row's edge targets, both discovered by earlier edges, so that every
// discovery edge and the layer framing stay as they were; and, separately,
// it labels one of the row's edges with another of the model's labels.
// Resuming either must fail with ErrBadCheckpoint naming the row's node,
// where a check of the discovery edges alone resumes into a wrong graph.
func TestResumeChecksEnumeratedRows(t *testing.T) {
	const depth = 3
	raw, err := os.ReadFile("testdata/explore-mobile-n3-depth3-cut2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	sections, err := resilient.ReadSections(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data := sections[0].Data
	if !bytes.Equal(decodeSection(t, data).encode(), data) {
		t.Fatal("the section does not encode back to its bytes")
	}
	s := decodeSection(t, data)
	// first[v] is 1 + the first in-edge of node v: its discovery edge.
	first := make([]int, len(s.keys))
	parents := map[int]bool{}
	for u := 0; u+1 < len(s.edgeStart); u++ {
		for e := s.edgeStart[u]; e < s.edgeStart[u+1]; e++ {
			if v := s.edgeTo[e]; first[v] == 0 && s.depthOf[v] > 0 {
				first[v] = int(e) + 1
				parents[u] = true
			}
		}
	}
	row, e1, e2 := -1, uint32(0), uint32(0)
search:
	for u := 0; u+1 < len(s.edgeStart); u++ {
		if !parents[u] {
			continue
		}
		for a := s.edgeStart[u]; a < s.edgeStart[u+1]; a++ {
			for b := a + 1; b < s.edgeStart[u+1]; b++ {
				va, vb := s.edgeTo[a], s.edgeTo[b]
				if va != vb && first[va] != 0 && first[va] <= int(a) && first[vb] != 0 && first[vb] <= int(a) {
					row, e1, e2 = u, a, b
					break search
				}
			}
		}
	}
	if row < 0 {
		t.Fatal("no enumerated row has two edges to nodes discovered before them")
	}
	node := fmt.Sprintf("node %d", row)
	resume := func(t *testing.T, patched *exploreSection) {
		t.Helper()
		ctx := resilient.Background()
		ctx.SetResume([]resilient.Section{{Tag: resilient.TagExplore, Data: patched.encode()}})
		_, rerr := core.ExploreIDCtx(ctx, newCkptModel(), depth, 0, 1)
		if !errors.Is(rerr, resilient.ErrBadCheckpoint) || !strings.Contains(rerr.Error(), node) {
			t.Fatalf("resume: err = %v, want ErrBadCheckpoint naming %s", rerr, node)
		}
	}
	t.Run("swapped targets", func(t *testing.T) {
		p := decodeSection(t, data)
		p.edgeTo[e1], p.edgeTo[e2] = p.edgeTo[e2], p.edgeTo[e1]
		resume(t, p)
	})
	t.Run("another label", func(t *testing.T) {
		p := decodeSection(t, data)
		if len(p.labels) < 2 {
			t.Fatal("the cut labels its edges with one action")
		}
		p.edgeLabel[e1] = (p.edgeLabel[e1] + 1) % uint32(len(p.labels))
		resume(t, p)
	})
}
