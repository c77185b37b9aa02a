package core_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/obs"
	"repro/internal/protocols"
	"repro/internal/resilient"
	"repro/internal/shmem"
	"repro/internal/syncmp"
)

// rememberModels are the families the remembered-graph tests run on: the
// synchronous and mobile keyed caches, the asynchronous keyed cache, and a
// plain cache (shared memory).
var rememberModels = []struct {
	name  string
	mk    func() core.Model
	depth int
}{
	{"sync-st", func() core.Model { return syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1) }, 2},
	{"mobile-s1", func() core.Model { return mobile.New(protocols.FloodSet{Rounds: 2}, 3) }, 2},
	{"asyncmp", func() core.Model { return asyncmp.New(protocols.MPFlood{Phases: 2}, 3) }, 2},
	{"shmem", func() core.Model { return shmem.New(protocols.SMVote{Phases: 2}, 3) }, 2},
}

// expandedAbove counts g's nodes first reached above depth d.
func expandedAbove(g *core.IDGraph, d int) int64 {
	n := int64(0)
	for _, dd := range g.DepthOf {
		if int(dd) < d {
			n++
		}
	}
	return n
}

// TestRememberedGraphMatchesFresh explores a model to depth D, then asks
// the same model for D-1, D and D+1: the first two take the remembered
// graph's first layers, the last continues it. Each answer equals an
// exploration of a fresh model to that depth, and Hits grows by the
// expanded nodes reused. A WithInits exploration over the same cache and a
// budgeted exploration equal fresh ones too, error text included.
func TestRememberedGraphMatchesFresh(t *testing.T) {
	for _, tc := range rememberModels {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mk()
			first, err := core.ExploreIDCtx(nil, m, tc.depth, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range []int{tc.depth - 1, tc.depth, tc.depth + 1} {
				before := first.Cache.Stats()
				got, err := core.ExploreIDCtx(nil, m, d, 0, 2)
				if err != nil {
					t.Fatalf("depth %d: %v", d, err)
				}
				want, err := core.ExploreIDCtx(nil, tc.mk(), d, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				idGraphsIdentical(t, want, got)
				reused := expandedAbove(want, min(d, tc.depth))
				if hits := got.Cache.Stats().Hits - before.Hits; hits != reused {
					t.Errorf("depth %d: %d hits, want %d reused expanded nodes", d, hits, reused)
				}
			}
			// The exploration to D+1 replaced the remembered graph: D-1 is
			// now its prefix, and the graph returned at D is untouched.
			got, err := core.ExploreIDCtx(nil, m, tc.depth-1, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.ExploreIDCtx(nil, tc.mk(), tc.depth-1, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			idGraphsIdentical(t, want, got)
			fresh, err := core.ExploreIDCtx(nil, tc.mk(), tc.depth, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			idGraphsIdentical(t, fresh, first)

			sub := core.WithInits(m, m.Inits()[1:3])
			gotSub, err := core.ExploreIDCtx(nil, sub, tc.depth, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			fm := tc.mk()
			wantSub, err := core.ExploreIDCtx(nil, core.WithInits(fm, fm.Inits()[1:3]), tc.depth, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			idGraphsIdentical(t, wantSub, gotSub)

			budget := fresh.Len() - len(fresh.Layer(tc.depth))/2
			gotCut, gotErr := core.ExploreIDCtx(nil, m, tc.depth, budget, 1)
			wantCut, wantErr := core.ExploreIDCtx(nil, tc.mk(), tc.depth, budget, 1)
			if !errors.Is(wantErr, core.ErrNodeBudget) || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("budgeted: err %v, want %v", gotErr, wantErr)
			}
			idGraphsIdentical(t, wantCut, gotCut)
		})
	}
}

// TestRememberedGraphConcurrent: explorations of one explored model from
// several goroutines at once, to depths below, at and beyond the
// remembered graph's, each equal a fresh model's graph. Under -race it
// checks the remembered graph, which they all read and the deeper ones
// replace, for data races.
func TestRememberedGraphConcurrent(t *testing.T) {
	const depth = 2
	want := make(map[int]*core.IDGraph)
	for d := depth - 1; d <= depth+1; d++ {
		g, err := core.ExploreIDCtx(nil, newCkptModel(), d, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[d] = g
	}
	m := newCkptModel()
	if _, err := core.ExploreIDCtx(nil, m, depth, 0, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]*core.IDGraph, 12)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = core.ExploreIDCtx(nil, m, depth-1+i%3, 0, 1+i%2)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		idGraphsIdentical(t, want[depth-1+i%3], g)
	}
}

// TestRememberedGraphNoLayerWork: taking a remembered graph's layers polls
// no fault point; continuing it polls at each new layer, and a cut there
// resumes on a fresh model to the fresh graph; and a resume snapshot takes
// precedence over the remembered graph.
func TestRememberedGraphNoLayerWork(t *testing.T) {
	const depth = 3
	m := newCkptModel()
	full, err := core.ExploreIDCtx(nil, m, depth, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: 1, Kind: chaos.KindCancel})
	chaos.Arm(plan)
	g, err := core.ExploreIDCtx(nil, m, depth, 0, 1)
	chaos.Disarm()
	if err != nil || len(plan.Fired()) != 0 || plan.Hits("explore.layer") != 0 {
		t.Fatalf("reuse polled explore.layer %d times (err %v)", plan.Hits("explore.layer"), err)
	}
	idGraphsIdentical(t, full, g)

	chaos.Arm(chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: 1, Kind: chaos.KindCancel}))
	partial, perr := core.ExploreIDCtx(nil, m, depth+1, 0, 1)
	chaos.Disarm()
	if !errors.Is(perr, resilient.ErrPartial) || partial.ReachedDepth() != depth {
		t.Fatalf("continuation cut at its first new layer: err %v, reached depth %d", perr, partial.ReachedDepth())
	}
	deeper, err := core.ExploreIDCtx(roundTrip(t, perr), newCkptModel(), depth+1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.ExploreIDCtx(nil, newCkptModel(), depth+1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	idGraphsIdentical(t, fresh, deeper)

	chaos.Arm(chaos.NewPlan().Set("explore.layer", chaos.Rule{Hit: 2, Kind: chaos.KindCancel}))
	_, perr = core.ExploreIDCtx(nil, newCkptModel(), depth, 0, 1)
	chaos.Disarm()
	ctx := roundTrip(t, perr)
	enums := full.Cache.Stats().Enumerations
	resumed, err := core.ExploreIDCtx(ctx, m, depth, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.PeekResume(resilient.TagExplore) != nil {
		t.Fatal("the remembered graph answered; the resume snapshot was not consumed")
	}
	if full.Cache.Stats().Enumerations == enums {
		t.Fatal("resume enumerated nothing")
	}
	idGraphsIdentical(t, full, resumed)
}

// TestExploreReuseJournal: a reuse opens the explore span and journals one
// explore.reuse event naming the model, the depth and the nodes reused.
func TestExploreReuseJournal(t *testing.T) {
	m := newCkptModel()
	if _, err := core.ExploreIDCtx(nil, m, 2, 0, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := obs.NewMetrics()
	j := obs.NewJournal(&buf)
	rec.SetJournal(j)
	obs.Enable(rec)
	obs.EnableTrace(obs.NewTracer(rec, j))
	g, err := core.ExploreIDCtx(nil, m, 1, 0, 1)
	obs.DisableTrace()
	obs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	var reuses, spans []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l struct {
			Event  string         `json:"event"`
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		switch l.Event {
		case "explore.reuse":
			reuses = append(reuses, l.Fields)
		case "span.begin":
			spans = append(spans, l.Fields)
		case "explore.start", "explore.depth":
			t.Errorf("a reuse journaled %s", l.Event)
		}
	}
	want := map[string]any{"model": m.Name(), "depth": float64(1), "nodes": float64(g.Len())}
	if len(reuses) != 1 || !reflect.DeepEqual(reuses[0], want) {
		t.Errorf("explore.reuse events %v, want one with %v", reuses, want)
	}
	if len(spans) != 1 || fmt.Sprint(spans[0]["name"]) != "explore" {
		t.Errorf("spans begun %v, want the explore span only", spans)
	}
}
