// Package chaos is the engine's deterministic fault-injection harness. The
// long-running engines declare named fault points at their safe
// interruption sites (explore.layer, explore.warm, certify.visit,
// field.layer, knowledge.bucket) by calling Inject; a test arms a Plan that fires a chosen fault — a panic, a
// delay, a forced cancellation, or forced budget exhaustion — on the k-th
// hit of a point, and everything else is a single atomic load plus a nil
// check.
//
// Plans are keyed by a seed: RandomPlan derives the victim point, the hit
// number, and the fault kind from a splitmix64 stream, so a failing chaos
// run is reproduced by its seed alone. Hit counters live in the plan, so
// re-arming a fresh plan replays the same schedule.
//
// The package is stdlib-only (plus internal/resilient for the error
// taxonomy): the engines above it import chaos, never the reverse.
package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilient"
)

// Kind is the action a fault rule performs when it fires.
type Kind uint8

const (
	// KindPanic panics with a *Fault value. Fault points inside pool
	// workers use it to exercise panic containment.
	KindPanic Kind = iota + 1
	// KindDelay sleeps for the rule's Delay and then continues normally:
	// the run must still produce a correct verdict.
	KindDelay
	// KindCancel returns the fault as an error; engines treat it exactly
	// like a cancellation observed at that safe point and return their
	// partial, resumable state.
	KindCancel
	// KindBudget returns the fault as an error; engines surface it through
	// their budget-exhaustion path.
	KindBudget
)

// String names the kind for fault messages.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindCancel:
		return "cancel"
	case KindBudget:
		return "budget"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Fault is one fired fault: the point, the hit number it fired on, and the
// kind. As an error it wraps resilient.ErrPartial, so engine callers see an
// injected cancel/budget fault through the same errors.Is degradation
// check as a real one.
type Fault struct {
	Point string
	Kind  Kind
	Hit   uint64
	Delay time.Duration
}

func (f *Fault) Error() string {
	return fmt.Sprintf("chaos: injected %s at %s (hit %d)", f.Kind, f.Point, f.Hit)
}

// Unwrap ties injected faults into the resilient degradation family.
func (f *Fault) Unwrap() error { return resilient.ErrPartial }

// Rule arms one fault at one point: fire Kind on the Hit-th call of
// Inject(point) (1-based).
type Rule struct {
	Hit   uint64
	Kind  Kind
	Delay time.Duration
}

// Plan is an armed set of rules with per-point hit counters.
type Plan struct {
	mu    sync.Mutex
	rules map[string]Rule
	hits  map[string]*uint64
	fired []*Fault
}

// NewPlan returns an empty plan; add rules with Set.
func NewPlan() *Plan {
	return &Plan{rules: make(map[string]Rule), hits: make(map[string]*uint64)}
}

// Set arms a rule for a point, replacing any existing rule there.
func (p *Plan) Set(point string, r Rule) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules[point] = r
	if p.hits[point] == nil {
		p.hits[point] = new(uint64)
	}
	return p
}

// Hits returns how many times Inject(point) has been observed by this
// plan. Tests probe an uninterrupted run with a never-firing rule to learn
// how many interruption sites it passes, then randomize cuts inside that
// range.
func (p *Plan) Hits(point string) uint64 {
	p.mu.Lock()
	ctr := p.hits[point]
	p.mu.Unlock()
	if ctr == nil {
		return 0
	}
	return atomic.LoadUint64(ctr)
}

// Fired returns the faults this plan has fired, in firing order.
func (p *Plan) Fired() []*Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Fault(nil), p.fired...)
}

// Points lists the engine fault points, in the order they sit on the
// layer-sweep pipeline. Tests iterate it so a new fault point cannot be
// forgotten by the chaos suite.
func Points() []string {
	return []string{
		"explore.layer",
		"explore.warm",
		"certify.visit",
		"field.layer",
		"knowledge.bucket",
	}
}

// RandomPlan derives a single-fault plan from a seed: a splitmix64 stream
// picks the victim point among candidates, a hit number in [1, maxHit],
// and a kind among kinds. The same seed always yields the same plan.
func RandomPlan(seed uint64, candidates []string, maxHit uint64, kinds []Kind) *Plan {
	s := seed
	point := candidates[int(splitmix64(&s)%uint64(len(candidates)))]
	hit := 1 + splitmix64(&s)%maxHit
	kind := kinds[int(splitmix64(&s)%uint64(len(kinds)))]
	return NewPlan().Set(point, Rule{Hit: hit, Kind: kind, Delay: time.Millisecond})
}

// PlanFor derives a single-fault plan for an explicit campaign cell: the
// point and kind are given (the campaign sweeps their full cross product),
// only the hit number in [1, maxHit] comes from the seed — salted with the
// point name and kind so the same seed cuts different cells at different
// hits. Deterministic: a campaign case is reproduced by (seed, point,
// kind, maxHit) alone.
func PlanFor(seed uint64, point string, kind Kind, maxHit uint64) *Plan {
	s := seed ^ uint64(kind)<<56
	for _, b := range []byte(point) {
		s = s*0x100000001b3 + uint64(b)
	}
	if maxHit < 1 {
		maxHit = 1
	}
	hit := 1 + splitmix64(&s)%maxHit
	return NewPlan().Set(point, Rule{Hit: hit, Kind: kind, Delay: time.Millisecond})
}

// splitmix64 advances the state and returns the next value of the
// splitmix64 stream — the standard seed-expansion mix, dependency-free.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// armed is the process-wide plan; nil when chaos is off (the default).
var armed atomic.Pointer[Plan]

// Arm installs p as the process-wide plan. Tests must Disarm before
// finishing (defer chaos.Disarm()).
func Arm(p *Plan) { armed.Store(p) }

// Disarm turns injection off; Inject returns nil afterwards.
func Disarm() { armed.Store(nil) }

// Inject is the fault point probe. Disarmed (the default) it is one atomic
// load and a nil check. Armed, it counts the hit and, when a rule fires:
// KindPanic panics with the *Fault, KindDelay sleeps and returns nil, and
// KindCancel/KindBudget return the *Fault as an error for the engine to
// surface through its cancellation or budget path.
func Inject(point string) error {
	p := armed.Load()
	if p == nil {
		return nil
	}
	return p.inject(point)
}

// Check is the combined interruption probe the engines poll at their safe
// points: the context's cancel flag first, then the named fault point. Both
// halves are one atomic load in the common (live, disarmed) case.
func Check(ctx *resilient.Ctx, point string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return Inject(point)
}

func (p *Plan) inject(point string) error {
	p.mu.Lock()
	r, ok := p.rules[point]
	ctr := p.hits[point]
	p.mu.Unlock()
	if !ok {
		return nil
	}
	hit := atomic.AddUint64(ctr, 1)
	if hit != r.Hit {
		return nil
	}
	f := &Fault{Point: point, Kind: r.Kind, Hit: hit, Delay: r.Delay}
	p.mu.Lock()
	p.fired = append(p.fired, f)
	p.mu.Unlock()
	if rec := obs.Active(); rec != nil {
		rec.Add("chaos.fired", 1)
		rec.Event("chaos.fired",
			obs.F{Key: "point", Value: point},
			obs.F{Key: "kind", Value: r.Kind.String()},
			obs.F{Key: "hit", Value: hit})
	}
	switch r.Kind {
	case KindPanic:
		panic(f)
	case KindDelay:
		time.Sleep(r.Delay)
		return nil
	default:
		return f
	}
}
