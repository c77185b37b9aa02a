package asyncmp_test

import (
	"bytes"
	"os"
	"slices"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/protocols"
	"repro/internal/resilient"
)

// TestExploreCheckpointParentBytes: an S^per exploration cut after its
// second layer writes the same checkpoint bytes as the build that wrote
// the fixture, whose models built every successor from strings, and that
// fixture resumes to the graph of an uninterrupted run.
func TestExploreCheckpointParentBytes(t *testing.T) {
	const depth = 3
	mk := func() core.Model { return asyncmp.New(protocols.MPFlood{Phases: 3}, 3) }
	parent, err := os.ReadFile("testdata/explore-sper-mpflood3-n3-depth3-cut2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: 2, Kind: chaos.KindCancel}))
	_, perr := core.ExploreIDCtx(nil, mk(), depth, 0, 1)
	chaos.Disarm()
	ck, ok := resilient.CheckpointFrom(perr)
	if !ok {
		t.Fatalf("no checkpoint attached to %v", perr)
	}
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
	ctx := resilient.Background()
	ctx.SetResume(back)
	resumed, err := core.ExploreIDCtx(ctx, mk(), depth, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.PeekResume(resilient.TagExplore) != nil {
		t.Fatal("stored snapshot was not consumed")
	}
	full, err := core.ExploreIDCtx(nil, mk(), depth, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(full.Keys, resumed.Keys) || !slices.Equal(full.DepthOf, resumed.DepthOf) ||
		!slices.Equal(full.Inits, resumed.Inits) || !slices.Equal(full.EdgeStart, resumed.EdgeStart) ||
		!slices.Equal(full.EdgeAction, resumed.EdgeAction) || !slices.Equal(full.EdgeTo, resumed.EdgeTo) {
		t.Fatal("resumed graph differs from the uninterrupted one")
	}
	for u, x := range resumed.States {
		if x.Key() != full.Keys[u] {
			t.Fatalf("node %d: resumed state key differs", u)
		}
	}
}
