package layers

import (
	"repro/internal/decision"
	"repro/internal/knowledge"
	"repro/internal/sim"
	"repro/internal/simplex"
	"repro/internal/tasks"
	"repro/internal/trace"
	"repro/internal/valence"
)

// Simulation re-exports: executing concrete runs.
type (
	// Scheduler picks environment actions during simulated runs.
	Scheduler = sim.Scheduler
	// Runner executes runs of a model under a scheduler.
	Runner = sim.Runner
	// Outcome summarizes one finished run.
	Outcome = sim.Outcome
	// Stats aggregates outcomes over many runs.
	Stats = sim.Stats
	// Cluster executes a synchronous protocol as concurrent goroutine
	// workers.
	Cluster = sim.Cluster
	// DropRule injects message loss into Cluster rounds.
	DropRule = sim.DropRule
	// Crash is a scheduler failing one process at a chosen layer.
	Crash = sim.Crash
	// FirstAction is the failure-free scheduler.
	FirstAction = sim.FirstAction
	// Starve is the 1-resilient adversary for permutation-layered models:
	// it never schedules the target process.
	Starve = sim.Starve
	// AsyncCluster executes an asynchronous message-passing protocol as
	// concurrent goroutine workers with controller-routed mailboxes.
	AsyncCluster = sim.AsyncCluster
)

// NewAsyncCluster starts a goroutine-per-process asynchronous cluster
// running protocol p from the given inputs. Close it when done.
func NewAsyncCluster(p MPProtocol, inputs []int) *AsyncCluster {
	return sim.NewAsyncCluster(p, inputs)
}

// NewRandomScheduler returns a seeded uniformly-random scheduler.
func NewRandomScheduler(seed int64) Scheduler { return sim.NewRandom(seed) }

// NewScriptScheduler replays a fixed action sequence (e.g. a witness
// execution's Actions()).
func NewScriptScheduler(actions []string) Scheduler { return sim.NewScript(actions) }

// NewAdversaryScheduler returns the bivalence-chasing scheduler of
// Lemma 4.1.
func NewAdversaryScheduler(o *Oracle, horizon HorizonFunc) Scheduler {
	return sim.NewAdversary(o, horizon)
}

// NewCluster starts a goroutine-per-process cluster running a synchronous
// protocol from the given inputs. Close it when done.
func NewCluster(p SyncProtocol, inputs []int) *Cluster { return sim.NewCluster(p, inputs) }

// Trace re-exports: rendering runs and state diffs.

// FormatExecution renders an execution layer by layer.
func FormatExecution(e *Execution) string { return trace.FormatExecution(e) }

// FormatState renders one state's decision/failure flags.
func FormatState(x State) string { return trace.FormatState(x) }

// CompareStates describes how two states differ and whether they are
// similar.
func CompareStates(x, y State) trace.Diff { return trace.Compare(x, y) }

// Task re-exports: the Section 7 decision-problem zoo.
type (
	// Task couples a decision problem with its ground-truth verdict.
	Task = tasks.Task
	// Covering is a pair of output complexes covering a run set.
	Covering = decision.Covering
)

// TaskZoo returns the standard decision problems for n processes.
func TaskZoo(n int) []Task { return tasks.Zoo(n) }

// BinaryConsensusTask returns the consensus decision problem.
func BinaryConsensusTask(n int) Task { return tasks.BinaryConsensus(n) }

// ConsensusCovering returns the covering reducing generalized valence to
// binary valence.
func ConsensusCovering(n int) Covering { return decision.ConsensusCovering(n) }

// CollectDecidedSimplexes gathers the decided output simplexes of a
// model's runs to the given depth.
func CollectDecidedSimplexes(m Model, depth, maxNodes int) (map[string]simplex.Simplex, error) {
	return decision.CollectDecidedSimplexes(m, depth, maxNodes)
}

// TaskWitness is the outcome of certifying a protocol against a general
// decision problem.
type TaskWitness = decision.TaskWitness

// Task certification outcomes.
const (
	TaskOK               = decision.TaskOK
	TaskOutputViolation  = decision.TaskOutputViolation
	TaskUndecidedAtBound = decision.TaskUndecidedAtBound
	TaskDecisionChanged  = decision.TaskDecisionChanged
)

// CertifyTask exhaustively checks that a protocol solves the decision
// problem Δ over the layered submodel from the given initial states:
// write-once decisions, everyone non-failed decided by the bound, and the
// decided simplex a face of some simplex of Δ(input). Agreement is not
// required — that is the point of general decision problems.
func CertifyTask(m Model, inits []State, delta DeltaFunc, bound, maxVisits int) (*TaskWitness, error) {
	return decision.CertifyTask(m, inits, delta, bound, maxVisits)
}

// CertifyFrom is Certify over an explicit set of initial states — e.g. a
// multivalued Con_0 built with a model's Initial method.
func CertifyFrom(m Model, inits []State, bound, maxVisits int) (*Witness, error) {
	return valence.CertifyFrom(m, inits, bound, maxVisits)
}

// DecisionDepth is the decision-time landscape of a protocol's runs.
type DecisionDepth = valence.DecisionDepth

// MeasureDecisionDepth walks every run of length bound from the initial
// states and histograms the first-all-decided layer.
func MeasureDecisionDepth(m Model, inits []State, bound, maxRuns int) (*DecisionDepth, error) {
	return valence.MeasureDecisionDepth(m, inits, bound, maxRuns)
}

// WidthProfile classifies every reachable state's valence per depth.
type WidthProfile = valence.WidthProfile

// BivalenceWidth measures how many bivalent/univalent states exist at each
// exploration depth — the adversary's room to maneuver.
func BivalenceWidth(m Model, o *Oracle, horizon HorizonFunc, depth, maxNodes int) (*WidthProfile, error) {
	return valence.BivalenceWidth(m, o, horizon, depth, maxNodes)
}

// Knowledge re-exports: the Dwork–Moses connection.

// KnowledgeClasses partitions states into common-knowledge classes among
// their non-failed processes.
type KnowledgeClasses = knowledge.Classes

// NewKnowledgeClasses computes the common-knowledge partition of a state
// set (typically: all states reachable at one round).
func NewKnowledgeClasses(states []State) *KnowledgeClasses {
	return knowledge.NewClasses(states)
}

// DecidedValueFact is the fact "some non-failed process has decided v".
func DecidedValueFact(v int) func(State) bool { return knowledge.DecidedValueFact(v) }
