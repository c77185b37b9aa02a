// The chaos suite drives every engine entry point through every fault
// kind at every declared fault point, under the race detector, and checks
// the resilience contract: a delayed run still produces the correct
// result bit for bit; a canceled, budget-faulted, or panicking run
// returns a clean error in the resilient.ErrPartial family; and retrying
// — resuming from the attached checkpoint when one is attached — always
// converges to the uninterrupted result.
//
// The suite iterates chaos.Points(), so adding a fault point to an engine
// without teaching this suite how to drive it fails the test.
package chaos_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/knowledge"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/resilient"
	"repro/internal/valence"
)

// suiteModel is the standard graded fixture: FloodSet under the
// single-mobile-failure adversary, n=3, explored to depth 2.
func suiteModel() core.Model { return mobile.New(protocols.FloodSet{Rounds: 2}, 3) }

// suiteGraph materializes the fixture graph with chaos disarmed.
func suiteGraph(t *testing.T) *core.IDGraph {
	t.Helper()
	g, err := core.ExploreID(suiteModel(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hashBytes summarizes a byte slice for compact equality checks.
func hashBytes(b []uint8) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func graphSummary(g *core.IDGraph) string {
	keys := make([]byte, 0, 64*g.Len())
	for _, k := range g.Keys {
		keys = append(keys, k...)
		keys = append(keys, 0)
	}
	return fmt.Sprintf("nodes=%d edges=%d depth=%d keys=%s",
		g.Len(), g.NumEdges(), g.Depth, hashBytes(keys))
}

func witnessSummary(w *valence.Witness) string {
	s := fmt.Sprintf("kind=%v explored=%d detail=%q", w.Kind, w.Explored, w.Detail)
	if w.Exec != nil {
		s += fmt.Sprintf(" init=%s steps=%d", w.Exec.Init.Key(), w.Exec.Len())
	}
	return s
}

// driver runs one engine entry point under a context; the summary must be
// identical across uninterrupted, delayed, and interrupt-resume runs.
type driver struct {
	// run executes the entry point and summarizes the result.
	run func(ctx *resilient.Ctx) (string, error)
	// hit is the fault-point hit the suite's rules fire on: deep enough to
	// interrupt mid-run where the point allows it.
	hit uint64
	// poolContained marks points polled inside resilient.Pool workers,
	// where an injected panic must surface as a *resilient.PanicError
	// instead of crossing the API boundary.
	poolContained bool
	// budgetErr, when non-nil, is the engine budget sentinel a KindBudget
	// fault at this point must satisfy errors.Is against.
	budgetErr error
}

// suiteDrivers maps every fault point to the entry point exercising it.
// g is shared, pre-built with chaos disarmed.
func suiteDrivers(g *core.IDGraph) map[string]driver {
	m := suiteModel()
	return map[string]driver{
		"explore.layer": {
			run: func(ctx *resilient.Ctx) (string, error) {
				gg, err := core.ExploreIDCtx(ctx, m, 2, 0, 1)
				if err != nil {
					return "", err
				}
				return graphSummary(gg), nil
			},
			hit:       2,
			budgetErr: core.ErrNodeBudget,
		},
		"explore.warm": {
			run: func(ctx *resilient.Ctx) (string, error) {
				gg, err := core.ExploreIDCtx(ctx, m, 2, 0, 4)
				if err != nil {
					return "", err
				}
				return graphSummary(gg), nil
			},
			hit:           1,
			poolContained: true,
			budgetErr:     core.ErrNodeBudget,
		},
		"certify.visit": {
			run: func(ctx *resilient.Ctx) (string, error) {
				w, err := valence.CertifyGraph(ctx, g, 0)
				if err != nil {
					return "", err
				}
				return witnessSummary(w), nil
			},
			hit:       1,
			budgetErr: valence.ErrBudget,
		},
		"field.layer": {
			run: func(ctx *resilient.Ctx) (string, error) {
				f, err := valence.NewFieldCtx(ctx, g)
				if err != nil {
					return "", err
				}
				return hashBytes(f.Masks()), nil
			},
			hit: 2,
		},
		"knowledge.bucket": {
			run: func(ctx *resilient.Ctx) (string, error) {
				c, err := knowledge.NewClasses(ctx, g.States)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("classes=%d of %d", c.Count(), g.Len()), nil
			},
			hit: 1,
		},
	}
}

// runCatching runs a driver and converts an escaped *chaos.Fault panic
// into (summary, err, the recovered fault). Non-fault panics re-panic.
func runCatching(d driver, ctx *resilient.Ctx) (s string, err error, panicked *chaos.Fault) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*chaos.Fault)
			if !ok {
				panic(r)
			}
			panicked = f
		}
	}()
	s, err = d.run(ctx)
	return
}

// retryToBaseline reruns the driver with chaos disarmed, resuming from the
// checkpoint attached to err when one is, and returns the summary.
func retryToBaseline(t *testing.T, d driver, err error) string {
	t.Helper()
	ctx := resilient.Background()
	if ck, ok := resilient.CheckpointFrom(err); ok {
		sections, serr := ck.Sections()
		if serr != nil {
			t.Fatalf("encoding attached checkpoint: %v", serr)
		}
		ctx.SetResume(sections)
	}
	got, rerr := d.run(ctx)
	if rerr != nil {
		t.Fatalf("disarmed retry still failed: %v", rerr)
	}
	return got
}

// TestChaosSuite is the fault-kind × fault-point matrix.
func TestChaosSuite(t *testing.T) {
	g := suiteGraph(t)
	drivers := suiteDrivers(g)
	for _, point := range chaos.Points() {
		if _, ok := drivers[point]; !ok {
			t.Fatalf("fault point %q has no suite driver — every declared point must be exercised", point)
		}
	}

	baselines := make(map[string]string, len(drivers))
	for point, d := range drivers {
		s, err := d.run(resilient.Background())
		if err != nil {
			t.Fatalf("%s: baseline run failed: %v", point, err)
		}
		baselines[point] = s
	}

	kinds := []chaos.Kind{chaos.KindDelay, chaos.KindCancel, chaos.KindBudget, chaos.KindPanic}
	for _, point := range chaos.Points() {
		d := drivers[point]
		for _, kind := range kinds {
			t.Run(fmt.Sprintf("%s/%s", point, kind), func(t *testing.T) {
				plan := chaos.NewPlan().Set(point, chaos.Rule{Hit: d.hit, Kind: kind})
				chaos.Arm(plan)
				defer chaos.Disarm()
				sum, err, panicked := runCatching(d, resilient.Background())
				chaos.Disarm()

				if fired := plan.Fired(); len(fired) != 1 {
					t.Fatalf("plan fired %d faults, want exactly 1", len(fired))
				}
				switch kind {
				case chaos.KindDelay:
					if err != nil || panicked != nil {
						t.Fatalf("delayed run must succeed; err=%v panic=%v", err, panicked)
					}
					if sum != baselines[point] {
						t.Fatalf("delayed run diverged:\n got %s\nwant %s", sum, baselines[point])
					}
				case chaos.KindPanic:
					if d.poolContained {
						var pe *resilient.PanicError
						if !errors.As(err, &pe) {
							t.Fatalf("pool point must contain the panic into a *PanicError, got err=%v panic=%v", err, panicked)
						}
						if !errors.Is(err, resilient.ErrPartial) {
							t.Fatalf("PanicError must wrap ErrPartial: %v", err)
						}
					} else if panicked == nil {
						t.Fatalf("expected the injected panic to cross the API boundary, got err=%v", err)
					}
					if err != nil {
						if got := retryToBaseline(t, d, err); got != baselines[point] {
							t.Fatalf("post-panic retry diverged:\n got %s\nwant %s", got, baselines[point])
						}
					}
				default: // KindCancel, KindBudget
					if panicked != nil {
						t.Fatalf("unexpected panic: %v", panicked)
					}
					if err == nil {
						t.Fatal("fault must surface as an error")
					}
					if !errors.Is(err, resilient.ErrPartial) {
						t.Fatalf("error outside the ErrPartial family: %v", err)
					}
					var f *chaos.Fault
					if !errors.As(err, &f) || f.Kind != kind {
						t.Fatalf("error does not carry the injected fault: %v", err)
					}
					if kind == chaos.KindBudget && d.budgetErr != nil && !errors.Is(err, d.budgetErr) {
						t.Fatalf("budget fault must satisfy the engine budget sentinel: %v", err)
					}
					if got := retryToBaseline(t, d, err); got != baselines[point] {
						t.Fatalf("resume diverged:\n got %s\nwant %s", got, baselines[point])
					}
				}
			})
		}
	}
}

// TestCoveringFieldResumesOnlyItself cuts a covering field sweep
// (decision.FieldValences) at field.layer and resumes it from its own
// checkpoint. A NewFieldCtx sweep over the same graph and ctx runs first
// and must leave that checkpoint alone: the two seeds key their
// checkpoints apart, so each resumed sweep is bit-identical to its
// uninterrupted run.
func TestCoveringFieldResumesOnlyItself(t *testing.T) {
	g := suiteGraph(t)
	cover := decision.ConsensusCovering(3)
	want, err := decision.FieldValences(nil, g, cover)
	if err != nil {
		t.Fatal(err)
	}
	wantBinary, err := valence.NewFieldCtx(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []chaos.Kind{chaos.KindCancel, chaos.KindBudget} {
		chaos.Arm(chaos.NewPlan().Set("field.layer", chaos.Rule{Hit: 2, Kind: kind}))
		_, cerr := decision.FieldValences(resilient.Background(), g, cover)
		chaos.Disarm()
		if !errors.Is(cerr, resilient.ErrPartial) {
			t.Fatalf("%s: cut err = %v, want the ErrPartial family", kind, cerr)
		}
		ck, ok := resilient.CheckpointFrom(cerr)
		if !ok {
			t.Fatalf("%s: cut carries no checkpoint", kind)
		}
		sections, err := ck.Sections()
		if err != nil {
			t.Fatal(err)
		}
		ctx := resilient.Background()
		ctx.SetResume(sections)
		bf, err := valence.NewFieldCtx(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.PeekResume(resilient.TagField) == nil {
			t.Fatalf("%s: NewFieldCtx took the covering sweep's checkpoint", kind)
		}
		if !bytes.Equal(bf.Masks(), wantBinary.Masks()) {
			t.Fatalf("%s: NewFieldCtx masks changed beside a covering checkpoint", kind)
		}
		got, err := decision.FieldValences(ctx, g, cover)
		if err != nil {
			t.Fatal(err)
		}
		if ctx.PeekResume(resilient.TagField) != nil {
			t.Fatalf("%s: the covering sweep did not resume its own checkpoint", kind)
		}
		if !bytes.Equal(got.Masks(), want.Masks()) {
			t.Fatalf("%s: resumed covering masks differ from an uninterrupted sweep", kind)
		}
	}
}

// pipeline runs the whole layered analysis — explore, certify, field,
// decision valences, knowledge partition — under one context and
// summarizes every result. Fault panics escaping an engine are converted
// to their *chaos.Fault error.
func pipeline(ctx *resilient.Ctx) (s string, err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*chaos.Fault)
			if !ok {
				panic(r)
			}
			s, err = "", f
		}
	}()
	m := suiteModel()
	g, err := core.ExploreIDCtx(ctx, m, 2, 0, 2)
	if err != nil {
		return "", err
	}
	w, err := valence.CertifyGraph(ctx, g, 0)
	if err != nil {
		return "", err
	}
	f, err := valence.NewFieldCtx(ctx, g)
	if err != nil {
		return "", err
	}
	cf, err := decision.FieldValences(ctx, g, decision.ConsensusCovering(3))
	if err != nil {
		return "", err
	}
	c, err := knowledge.NewClasses(ctx, g.States)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s | %s | field=%s | decision=%s | classes=%d",
		graphSummary(g), witnessSummary(w), hashBytes(f.Masks()), hashBytes(cf.Masks()), c.Count()), nil
}

// TestChaosRandomSeeds replays seed-keyed random plans against the full
// pipeline: every outcome is either the baseline result or a clean
// ErrPartial-family error from which a disarmed retry (resuming when a
// checkpoint is attached) reaches the baseline; and the same seed always
// reproduces the same outcome.
func TestChaosRandomSeeds(t *testing.T) {
	baseline, err := pipeline(resilient.Background())
	if err != nil {
		t.Fatal(err)
	}
	kinds := []chaos.Kind{chaos.KindPanic, chaos.KindDelay, chaos.KindCancel, chaos.KindBudget}

	outcome := func(seed uint64) string {
		plan := chaos.RandomPlan(seed, chaos.Points(), 4, kinds)
		chaos.Arm(plan)
		defer chaos.Disarm()
		sum, err := pipeline(resilient.Background())
		chaos.Disarm()
		if err == nil {
			if sum != baseline {
				t.Fatalf("seed %d: chaos run diverged from baseline:\n got %s\nwant %s", seed, sum, baseline)
			}
			return "ok"
		}
		if !errors.Is(err, resilient.ErrPartial) {
			t.Fatalf("seed %d: error outside the ErrPartial family: %v", seed, err)
		}
		ctx := resilient.Background()
		if ck, ok := resilient.CheckpointFrom(err); ok {
			sections, serr := ck.Sections()
			if serr != nil {
				t.Fatalf("seed %d: encoding checkpoint: %v", seed, serr)
			}
			ctx.SetResume(sections)
		}
		resumed, rerr := pipeline(ctx)
		if rerr != nil {
			t.Fatalf("seed %d: disarmed retry failed: %v", seed, rerr)
		}
		if resumed != baseline {
			t.Fatalf("seed %d: resumed run diverged from baseline:\n got %s\nwant %s", seed, resumed, baseline)
		}
		return "err: " + err.Error()
	}

	for seed := uint64(1); seed <= 24; seed++ {
		first := outcome(seed)
		if second := outcome(seed); second != first {
			t.Fatalf("seed %d not deterministic:\n first  %s\n second %s", seed, first, second)
		}
	}
}
