// Package sim is the executable run substrate: it drives any model's
// protocol through concrete executions under a pluggable scheduler — a
// seeded random scheduler for statistical exploration, a scripted scheduler
// for replaying witness runs, and an adversarial scheduler that enacts the
// paper's bivalence-chasing environment. It also provides a goroutine-based
// cluster runtime (Cluster) that executes synchronous protocols as real
// concurrent processes exchanging messages over channels.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/valence"
)

// Scheduler chooses the environment's next action among a state's
// successors.
type Scheduler interface {
	// Name identifies the scheduler.
	Name() string
	// Next returns the index of the successor to take, or false to stop
	// the run.
	Next(x core.State, succs []core.Succ) (int, bool)
}

// Random is a seeded uniformly-random scheduler.
type Random struct {
	rng *rand.Rand
}

var _ Scheduler = (*Random)(nil)

// NewRandom returns a random scheduler with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Scheduler.
func (r *Random) Name() string { return "random" }

// Next implements Scheduler.
func (r *Random) Next(_ core.State, succs []core.Succ) (int, bool) {
	if len(succs) == 0 {
		return 0, false
	}
	return r.rng.Intn(len(succs)), true
}

// Script replays a fixed sequence of action labels (e.g. a witness
// execution's Actions()); it stops when the script is exhausted or an
// action is not offered.
type Script struct {
	actions []string
	pos     int
}

var _ Scheduler = (*Script)(nil)

// NewScript returns a scheduler replaying the given actions.
func NewScript(actions []string) *Script {
	return &Script{actions: append([]string(nil), actions...)}
}

// Name implements Scheduler.
func (s *Script) Name() string { return "script" }

// Next implements Scheduler.
func (s *Script) Next(_ core.State, succs []core.Succ) (int, bool) {
	if s.pos >= len(s.actions) {
		return 0, false
	}
	want := s.actions[s.pos]
	for i, succ := range succs {
		if succ.Action == want {
			s.pos++
			return i, true
		}
	}
	return 0, false
}

// Remaining returns how many scripted actions were not consumed.
func (s *Script) Remaining() int { return len(s.actions) - s.pos }

// Adversary is the paper's environment: it chases bivalent successors
// (Lemma 4.1) to postpone decision as long as possible, falling back to the
// first successor when no bivalent one exists. Valences are read off a
// valence field, so a successor at depth d is judged within the field's
// horizon B-d; successors outside the field's graph count as not bivalent,
// so explore the graph at least as deep as the runs the adversary steers.
type Adversary struct {
	field *valence.Field
}

var _ Scheduler = (*Adversary)(nil)

// NewAdversary returns a bivalence-chasing scheduler reading the field.
func NewAdversary(f *valence.Field) *Adversary {
	return &Adversary{field: f}
}

// Name implements Scheduler.
func (a *Adversary) Name() string { return "adversary" }

// Next implements Scheduler.
func (a *Adversary) Next(_ core.State, succs []core.Succ) (int, bool) {
	for i, s := range succs {
		if m, ok := a.field.MaskOf(s.State); ok && m == valence.V0|valence.V1 {
			return i, true
		}
	}
	if len(succs) == 0 {
		return 0, false
	}
	return 0, true
}

// FirstAction always picks the first successor (the failure-free action in
// the synchronous models).
type FirstAction struct{}

var _ Scheduler = FirstAction{}

// Name implements Scheduler.
func (FirstAction) Name() string { return "first" }

// Next implements Scheduler.
func (FirstAction) Next(_ core.State, succs []core.Succ) (int, bool) {
	if len(succs) == 0 {
		return 0, false
	}
	return 0, true
}

// Crash targets one process in the synchronous models: at a scheduled
// layer it picks the action silencing that process to a prefix set, and the
// failure-free action otherwise.
type Crash struct {
	// Process is the 0-based process to fail.
	Process int
	// AtLayer is the layer (1-based count of Next calls) at which to fail.
	AtLayer int
	// OmitTo is the size of the prefix omission set [k].
	OmitTo int

	layer int
}

var _ Scheduler = (*Crash)(nil)

// Name implements Scheduler.
func (c *Crash) Name() string {
	return fmt.Sprintf("crash(p=%d,layer=%d,k=%d)", c.Process, c.AtLayer, c.OmitTo)
}

// Next implements Scheduler.
func (c *Crash) Next(_ core.State, succs []core.Succ) (int, bool) {
	c.layer++
	if len(succs) == 0 {
		return 0, false
	}
	if c.layer == c.AtLayer {
		want := fmt.Sprintf("(%d,[%d])", c.Process, c.OmitTo)
		for i, s := range succs {
			if s.Action == want {
				return i, true
			}
		}
	}
	return 0, true
}
