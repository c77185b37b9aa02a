package sim

import (
	"errors"

	"repro/internal/core"
	"repro/internal/obs"
)

// ErrNoSuccessors is returned when a model offers no successors (models in
// this repository always offer at least one; seeing this indicates a model
// bug).
var ErrNoSuccessors = errors.New("sim: model offered no successors")

// Outcome summarizes one finished run.
type Outcome struct {
	// Exec is the executed prefix.
	Exec *core.Execution
	// Layers is the number of layers executed.
	Layers int
	// Decided[i] is process i's decision, core.Undecided if none.
	Decided []int
	// AllDecided reports whether every non-failed process decided.
	AllDecided bool
	// Agreement reports whether all non-failed decided processes agree.
	Agreement bool
	// DecisionLayer is the first layer at which every non-failed process
	// had decided, or -1.
	DecisionLayer int
}

// Runner executes runs of a model under a scheduler.
type Runner struct {
	// Model is the layered model to execute.
	Model core.Model
	// MaxLayers bounds each run.
	MaxLayers int
}

// Run executes one run from init under sched, stopping at MaxLayers, when
// the scheduler stops, or as soon as every non-failed process has decided.
func (r *Runner) Run(init core.State, sched Scheduler) (*Outcome, error) {
	exec := &core.Execution{Init: init}
	x := init
	decisionLayer := -1
	if core.AllDecided(x) {
		decisionLayer = 0
	}
	for layer := 1; decisionLayer < 0 && layer <= r.MaxLayers; layer++ {
		succs := r.Model.Successors(x)
		if len(succs) == 0 {
			return nil, ErrNoSuccessors
		}
		i, ok := sched.Next(x, succs)
		if !ok {
			break
		}
		if i < 0 || i >= len(succs) {
			i = 0
		}
		exec = exec.Extend(succs[i].Action, succs[i].State)
		x = succs[i].State
		if core.AllDecided(x) {
			decisionLayer = exec.Len()
		}
	}
	rec := obs.Active()
	rec.Add("sim.runs", 1)
	rec.Add("sim.layers", int64(exec.Len()))
	if decisionLayer >= 0 {
		rec.Add("sim.decided", 1)
	}
	return r.outcome(exec, decisionLayer), nil
}

func (r *Runner) outcome(exec *core.Execution, decisionLayer int) *Outcome {
	x := exec.Last()
	out := &Outcome{
		Exec:          exec,
		Layers:        exec.Len(),
		Decided:       make([]int, x.N()),
		AllDecided:    core.AllDecided(x),
		Agreement:     true,
		DecisionLayer: decisionLayer,
	}
	seen := core.Undecided
	for i := 0; i < x.N(); i++ {
		v, ok := x.Decided(i)
		if !ok {
			out.Decided[i] = core.Undecided
			continue
		}
		out.Decided[i] = v
		if x.FailedAt(i) {
			continue
		}
		if seen != core.Undecided && v != seen {
			out.Agreement = false
		}
		seen = v
	}
	return out
}

// Stats aggregates outcomes across many runs.
type Stats struct {
	Runs           int
	Decided        int
	AgreementOK    int
	Violations     int
	MaxLayersToEnd int
	TotalLayers    int
}

// RunMany executes runs from every initial state, `per` seeds each, using
// fresh random schedulers derived from baseSeed, and aggregates.
func (r *Runner) RunMany(per int, baseSeed int64) (*Stats, error) {
	st := &Stats{}
	seed := baseSeed
	for _, init := range r.Model.Inits() {
		for k := 0; k < per; k++ {
			seed++
			out, err := r.Run(init, NewRandom(seed))
			if err != nil {
				return nil, err
			}
			st.Runs++
			st.TotalLayers += out.Layers
			if out.Layers > st.MaxLayersToEnd {
				st.MaxLayersToEnd = out.Layers
			}
			if out.AllDecided {
				st.Decided++
			}
			if out.Agreement {
				st.AgreementOK++
			} else {
				st.Violations++
			}
		}
	}
	return st, nil
}
