package valence_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/resilient"
	"repro/internal/shmem"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// ckptGraph materializes the standard graded fixture for checkpoint tests.
func ckptGraph(t *testing.T, m core.Model, bound int) *core.IDGraph {
	t.Helper()
	g, err := core.ExploreIDCtx(nil, m, bound, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// resumeCtx persists the checkpoint attached to err through the binary
// container and returns a fresh context carrying it, mirroring a process
// that saved the file, exited, and restarted with -resume.
func resumeCtx(t *testing.T, err error) *resilient.Ctx {
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

// witnessesIdentical asserts two witnesses agree bit-for-bit: kind, detail,
// visit count, and the full counterexample execution when present.
func witnessesIdentical(t *testing.T, want, got *valence.Witness) {
	t.Helper()
	if got.Kind != want.Kind {
		t.Fatalf("kind %v != %v", got.Kind, want.Kind)
	}
	if got.Detail != want.Detail {
		t.Fatalf("detail %q != %q", got.Detail, want.Detail)
	}
	if got.Explored != want.Explored {
		t.Fatalf("explored %d != %d", got.Explored, want.Explored)
	}
	if want.Exec == nil {
		if got.Exec != nil {
			t.Fatal("resumed run attached an execution the baseline lacks")
		}
		return
	}
	if got.Exec.Init.Key() != want.Exec.Init.Key() {
		t.Fatalf("witness init %s != %s", got.Exec.Init.Key(), want.Exec.Init.Key())
	}
	if len(got.Exec.Steps) != len(want.Exec.Steps) {
		t.Fatalf("witness length %d != %d", len(got.Exec.Steps), len(want.Exec.Steps))
	}
	for i := range got.Exec.Steps {
		if got.Exec.Steps[i].Action != want.Exec.Steps[i].Action ||
			got.Exec.Steps[i].State.Key() != want.Exec.Steps[i].State.Key() {
			t.Fatalf("witness step %d differs", i)
		}
	}
}

// TestCertifyCheckpointRandomCuts is the satellite resumability property
// test for the certifier: interrupt CertifyGraphCtx at randomized DFS cut
// points (every root boundary plus every 256th step is a poll; the rule's
// hit count picks one uniformly), persist the checkpoint through the binary
// container, resume on a freshly materialized graph, and require the final
// witness to be bit-identical to the uninterrupted run's.
func TestCertifyCheckpointRandomCuts(t *testing.T) {
	models := []struct {
		name  string
		m     func() core.Model
		bound int
	}{
		{"mobile-n3-b2", func() core.Model { return mobile.New(protocols.FloodSet{Rounds: 2}, 3) }, 2},
		{"shmem-n3-p2", func() core.Model { return shmem.New(protocols.SMVote{Phases: 1}, 3) }, 2},
		{"ok-syncst-n3-t1", func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1) }, 2},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range models {
		t.Run(tc.name, func(t *testing.T) {
			g := ckptGraph(t, tc.m(), tc.bound)
			// Probe the uninterrupted run with a never-firing rule to learn
			// how many interruption sites it actually passes (a violation
			// witness ends the root loop early), so random hits always land
			// inside the run — a rule that never fires would test nothing.
			probe := chaos.NewPlan().Set("certify.visit", chaos.Rule{Hit: ^uint64(0), Kind: chaos.KindCancel})
			chaos.Arm(probe)
			want, err := valence.CertifyGraph(nil, g, 0)
			chaos.Disarm()
			if err != nil {
				t.Fatal(err)
			}
			polls := probe.Hits("certify.visit")
			if polls == 0 {
				t.Fatal("uninterrupted run passed no certify.visit polls")
			}
			for trial := 0; trial < 6; trial++ {
				hit := 1 + uint64(rng.Int63n(int64(polls)))
				plan := chaos.NewPlan().Set("certify.visit", chaos.Rule{Hit: hit, Kind: chaos.KindCancel})
				chaos.Arm(plan)
				_, perr := valence.CertifyGraph(nil, g, 0)
				chaos.Disarm()
				if len(plan.Fired()) != 1 {
					t.Fatalf("hit=%d: plan fired %d faults, want 1 (polls estimate %d)", hit, len(plan.Fired()), polls)
				}
				if !errors.Is(perr, resilient.ErrPartial) {
					t.Fatalf("hit=%d: err = %v, want ErrPartial family", hit, perr)
				}
				got, rerr := valence.CertifyGraph(resumeCtx(t, perr), ckptGraph(t, tc.m(), tc.bound), 0)
				if rerr != nil {
					t.Fatalf("hit=%d: resume failed: %v", hit, rerr)
				}
				witnessesIdentical(t, want, got)
			}
		})
	}
}

// TestCertifyCheckpointBudgetFault routes an injected budget fault through
// the certifier: the error carries both ErrBudget and ErrPartial plus a
// resumable checkpoint, and a resumed run still matches the baseline.
func TestCertifyCheckpointBudgetFault(t *testing.T) {
	g := ckptGraph(t, mobile.New(protocols.FloodSet{Rounds: 2}, 3), 2)
	want, err := valence.CertifyGraph(nil, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(chaos.NewPlan().Set("certify.visit", chaos.Rule{Hit: 3, Kind: chaos.KindBudget}))
	_, perr := valence.CertifyGraph(nil, g, 0)
	chaos.Disarm()
	if !errors.Is(perr, valence.ErrBudget) || !errors.Is(perr, resilient.ErrPartial) {
		t.Fatalf("err = %v, want ErrBudget wrapping ErrPartial", perr)
	}
	got, rerr := valence.CertifyGraph(resumeCtx(t, perr), g, 0)
	if rerr != nil {
		t.Fatal(rerr)
	}
	witnessesIdentical(t, want, got)
}

// TestCertifyCheckpointValidation: a snapshot for a different graph or
// maxVisits is ignored (the run restarts clean and the stale sections stay
// unconsumed), and a corrupted payload fails with ErrBadCheckpoint.
func TestCertifyCheckpointValidation(t *testing.T) {
	g := ckptGraph(t, mobile.New(protocols.FloodSet{Rounds: 2}, 3), 2)
	chaos.Arm(chaos.NewPlan().Set("certify.visit", chaos.Rule{Hit: 2, Kind: chaos.KindCancel}))
	_, perr := valence.CertifyGraph(nil, g, 0)
	chaos.Disarm()

	other := ckptGraph(t, syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1), 2)
	ctx := resumeCtx(t, perr)
	want, err := valence.CertifyGraph(nil, other, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := valence.CertifyGraph(ctx, other, 0)
	if err != nil {
		t.Fatalf("mismatched snapshot was not ignored: %v", err)
	}
	if ctx.PeekResume(resilient.TagCertify) == nil {
		t.Fatal("mismatched snapshot was consumed")
	}
	witnessesIdentical(t, want, got)

	if _, derr := valence.DecodeCertifyCheckpoint([]byte{0xde, 0xad}); !errors.Is(derr, resilient.ErrBadCheckpoint) {
		t.Fatalf("corrupt payload: err = %v, want ErrBadCheckpoint", derr)
	}
	if _, derr := valence.DecodeFieldCheckpoint([]byte{0x01}); !errors.Is(derr, resilient.ErrBadCheckpoint) {
		t.Fatalf("corrupt field payload: err = %v, want ErrBadCheckpoint", derr)
	}
}

// TestFieldCheckpointRandomCuts interrupts the layer sweep at every layer
// boundary in turn and requires the resumed field's mask array to be
// byte-identical to an uninterrupted one. The resume runs over a freshly
// explored graph, as a restarted process would, explored with w workers:
// the checkpoint's graph fingerprint must match across exploration widths.
func TestFieldCheckpointRandomCuts(t *testing.T) {
	mk := func() core.Model { return mobile.New(protocols.FloodSet{Rounds: 2}, 3) }
	g := ckptGraph(t, mk(), 2)
	want := newField(t, g)
	layers := g.NumLayers()
	for cut := 1; cut <= layers; cut++ {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("cut%d-w%d", cut, workers), func(t *testing.T) {
				fresh, err := core.ExploreIDCtx(nil, mk(), 2, 0, workers)
				if err != nil {
					t.Fatal(err)
				}
				plan := chaos.NewPlan().Set("field.layer", chaos.Rule{Hit: uint64(cut), Kind: chaos.KindCancel})
				chaos.Arm(plan)
				_, perr := valence.NewFieldCtx(nil, g)
				chaos.Disarm()
				if len(plan.Fired()) != 1 {
					t.Fatalf("plan fired %d faults, want 1", len(plan.Fired()))
				}
				if !errors.Is(perr, resilient.ErrPartial) {
					t.Fatalf("err = %v, want ErrPartial family", perr)
				}
				got, rerr := valence.NewFieldCtx(resumeCtx(t, perr), fresh)
				if rerr != nil {
					t.Fatalf("resume failed: %v", rerr)
				}
				if !bytes.Equal(want.Masks(), got.Masks()) {
					t.Fatal("resumed field masks differ from uninterrupted sweep")
				}
			})
		}
	}
}

// TestCertifyCheckpointParentBytes: on a graded graph a certify cut
// encodes to the same bytes as a checkpoint written by an earlier build
// of this encoding (testdata, cut mid-stack at the second poll), and
// resuming that stored checkpoint finishes with the uninterrupted verdict.
func TestCertifyCheckpointParentBytes(t *testing.T) {
	mk := func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 3}, 5, 2) }
	g := ckptGraph(t, mk(), 3)
	want, err := valence.CertifyGraph(nil, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	chaos.Arm(chaos.NewPlan().Set("certify.visit", chaos.Rule{Hit: 2, Kind: chaos.KindCancel}))
	_, perr := valence.CertifyGraph(nil, g, 0)
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
	stored, err := os.ReadFile("testdata/certify-syncst-n5-t2-hit2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), stored) {
		t.Fatal("certify checkpoint of a graded graph encodes to different bytes")
	}
	back, err := resilient.ReadSections(bytes.NewReader(stored))
	if err != nil {
		t.Fatal(err)
	}
	ctx := resilient.Background()
	ctx.SetResume(back)
	got, err := valence.CertifyGraph(ctx, ckptGraph(t, mk(), 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.PeekResume(resilient.TagCertify) != nil {
		t.Fatal("stored checkpoint was not consumed")
	}
	witnessesIdentical(t, want, got)
}

// TestFieldCheckpointParentBytes: a NewFieldCtx cut encodes to the same
// bytes as a checkpoint written by an earlier build (testdata, cut at the
// second layer poll), so seeded fields left the decided field's
// fingerprint alone. Resuming the stored checkpoint finishes with the
// uninterrupted masks, and a covering-seeded sweep over the same graph and
// context leaves it untouched.
func TestFieldCheckpointParentBytes(t *testing.T) {
	mk := func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 3}, 5, 2) }
	g := ckptGraph(t, mk(), 3)
	want := newField(t, g).Masks()
	chaos.Arm(chaos.NewPlan().Set("field.layer", chaos.Rule{Hit: 2, Kind: chaos.KindCancel}))
	_, perr := valence.NewFieldCtx(nil, g)
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
	stored, err := os.ReadFile("testdata/field-syncst-n5-t2-hit2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), stored) {
		t.Fatal("field checkpoint encodes to different bytes")
	}
	back, err := resilient.ReadSections(bytes.NewReader(stored))
	if err != nil {
		t.Fatal(err)
	}
	ctx := resilient.Background()
	ctx.SetResume(back)
	fresh := ckptGraph(t, mk(), 3)
	if _, err := valence.NewFieldFrom(ctx, fresh, byProcessSeed); err != nil {
		t.Fatal(err)
	}
	if ctx.PeekResume(resilient.TagField) == nil {
		t.Fatal("a covering-seeded sweep took the decided field's checkpoint")
	}
	got, err := valence.NewFieldCtx(ctx, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.PeekResume(resilient.TagField) != nil {
		t.Fatal("stored checkpoint was not consumed")
	}
	if !bytes.Equal(got.Masks(), want) {
		t.Fatal("resumed field differs from an uninterrupted sweep")
	}
}

// TestFieldCheckpointLayerRange: a field checkpoint matches its graph only
// when its next layer is one of the graph's layers; an out-of-range
// NextLayer (which a crafted file can carry) is never resumed.
func TestFieldCheckpointLayerRange(t *testing.T) {
	g := ckptGraph(t, syncmp.NewSt(protocols.FloodSet{Rounds: 3}, 5, 2), 3)
	stored, err := os.ReadFile("testdata/field-syncst-n5-t2-hit2.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	sections, err := resilient.ReadSections(bytes.NewReader(stored))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := valence.DecodeFieldCheckpoint(sections[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Matches(g, 0) {
		t.Fatalf("stored checkpoint (next layer %d) does not match its graph", ck.NextLayer)
	}
	for _, next := range []int{-1, g.NumLayers(), 1 << 20} {
		ck.NextLayer = next
		if ck.Matches(g, 0) {
			t.Errorf("next layer %d of %d layers matched", next, g.NumLayers())
		}
	}
}

// TestCertifyResumeNonGraded cuts Certify on non-graded graphs at every
// interruption point in turn — every explore layer, every certify root and
// every 256-step poll — resumes each cut in a fresh model, and requires
// the uninterrupted witness and Explored count. ownInput walks every run
// to OK, long enough to pass the step polls; MPFlood stops at a witness.
func TestCertifyResumeNonGraded(t *testing.T) {
	cases := []struct {
		name  string
		m     func() core.Model
		bound int
		walks bool // certifies OK, passing step polls past the root polls
	}{
		{"own-input-n2-b4", func() core.Model { return uniformOnly(asyncmp.New(ownInput{}, 2)) }, 4, true},
		{"mpflood-n2-b3", func() core.Model { return asyncmp.New(protocols.MPFlood{Phases: 3}, 2) }, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := ckptGraph(t, tc.m(), tc.bound)
			if g.Graded() {
				t.Fatal("graph is graded")
			}
			want, err := valence.Certify(nil, tc.m(), tc.bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, point := range []string{"explore.layer", "certify.visit"} {
				probe := chaos.NewPlan().Set(point, chaos.Rule{Hit: ^uint64(0), Kind: chaos.KindCancel})
				chaos.Arm(probe)
				_, err := valence.Certify(nil, tc.m(), tc.bound, 0)
				chaos.Disarm()
				if err != nil {
					t.Fatal(err)
				}
				polls := probe.Hits(point)
				if polls == 0 {
					t.Fatalf("%s: no polls", point)
				}
				if tc.walks && point == "certify.visit" && polls <= uint64(len(g.Inits)) {
					t.Fatalf("%d certify polls for %d roots: no step poll", polls, len(g.Inits))
				}
				for hit := uint64(1); hit <= polls; hit++ {
					plan := chaos.NewPlan().Set(point, chaos.Rule{Hit: hit, Kind: chaos.KindCancel})
					chaos.Arm(plan)
					_, perr := valence.Certify(nil, tc.m(), tc.bound, 0)
					chaos.Disarm()
					if !errors.Is(perr, resilient.ErrPartial) {
						t.Fatalf("%s hit %d: err = %v, want ErrPartial family", point, hit, perr)
					}
					got, rerr := valence.Certify(resumeCtx(t, perr), tc.m(), tc.bound, 0)
					if rerr != nil {
						t.Fatalf("%s hit %d: resume failed: %v", point, hit, rerr)
					}
					witnessesIdentical(t, want, got)
				}
			}
		})
	}
}
