// Package layers is the public API of the layered-analysis framework, a
// reproduction of Moses & Rajsbaum, "The Unified Structure of Consensus: a
// Layered Analysis Approach" (PODC 1998).
//
// The framework implements the paper's four models — the t-resilient
// synchronous message-passing model, the single-mobile-failure model M^mf,
// asynchronous read/write shared memory M^rw, and asynchronous message
// passing — each equipped with the paper's layerings (S1, S^t, the
// synchronic layering S^rw, and the permutation layering S^per), and the
// valence/connectivity machinery that drives the paper's impossibility
// proofs and lower bounds. On top of it sit executable analyses:
//
//   - Certify exhaustively checks a consensus protocol over a layered
//     submodel and returns OK or a concrete witness run;
//   - BivalentChain constructs the Theorem 4.2 / Lemma 6.1 adversary run;
//   - AnalyzeLayer reports the similarity and valence structure of a layer
//     S(x);
//   - the simplex/task API evaluates the Section 7 1-thick-connectivity
//     characterization of 1-resilient solvability;
//   - the sim API executes runs under seeded, scripted, or adversarial
//     schedulers, and runs synchronous protocols as concurrent goroutine
//     clusters.
//
// See the examples directory for complete programs, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the paper-claim vs. measured
// record.
package layers

import (
	"time"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/iis"
	"repro/internal/knowledge"
	"repro/internal/mobile"
	"repro/internal/proto"
	"repro/internal/resilient"
	"repro/internal/shmem"
	"repro/internal/simplex"
	"repro/internal/snapshot"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// Core vocabulary re-exports.
type (
	// State is a global state: a local state per process plus the
	// environment, observed through canonical encodings.
	State = core.State
	// Succ is a labeled successor of a state.
	Succ = core.Succ
	// Successor is the paper's successor function S : G -> 2^G \ {∅}.
	Successor = core.Successor
	// Model couples a successor function with its initial states.
	Model = core.Model
	// Execution is a finite execution: an initial state plus labeled steps.
	Execution = core.Execution
	// Step is one transition of an execution.
	Step = core.Step
)

// Protocol interfaces re-exports.
type (
	// SyncProtocol is a protocol for the round-based synchronous models.
	SyncProtocol = proto.SyncProtocol
	// SMProtocol is a protocol for the shared-memory model M^rw.
	SMProtocol = proto.SMProtocol
	// MPProtocol is a protocol for asynchronous message passing.
	MPProtocol = proto.MPProtocol
)

// Analysis vocabulary re-exports.
type (
	// Oracle computes horizon-bounded valence.
	Oracle = valence.Oracle
	// LayerReport is the connectivity analysis of one layer S(x).
	LayerReport = valence.LayerReport
	// Chain is a bivalent chain construction result.
	Chain = valence.Chain
	// Witness is the outcome of certifying a protocol.
	Witness = valence.Witness
	// WitnessKind classifies certification outcomes.
	WitnessKind = valence.WitnessKind
	// HorizonFunc gives the valence lookahead per chain depth.
	HorizonFunc = valence.HorizonFunc
)

// Witness kinds.
const (
	OK                 = valence.OK
	AgreementViolation = valence.AgreementViolation
	ValidityViolation  = valence.ValidityViolation
	UndecidedAtBound   = valence.UndecidedAtBound
	DecisionChanged    = valence.DecisionChanged
)

// Undecided is the sentinel decision value.
const Undecided = core.Undecided

// MobileS1 returns the single-mobile-failure model M^mf with the S1
// layering (Section 5) for protocol p on n processes.
func MobileS1(p SyncProtocol, n int) *mobile.Model { return mobile.New(p, n) }

// SyncS1 returns the t-resilient synchronous model with the S1 layering
// (failures recorded and silenced, no budget cap).
func SyncS1(p SyncProtocol, n int) *syncmp.Model { return syncmp.NewS1(p, n) }

// SyncSt returns the t-resilient synchronous model with the S^t layering
// of Section 6.
func SyncSt(p SyncProtocol, n, t int) *syncmp.Model { return syncmp.NewSt(p, n, t) }

// SharedMemory returns M^rw with the synchronic layering S^rw (Section
// 5.1).
func SharedMemory(p SMProtocol, n int) *shmem.Model { return shmem.New(p, n) }

// AsyncMessagePassing returns the asynchronous message-passing model with
// the permutation layering S^per (Section 5.1).
func AsyncMessagePassing(p MPProtocol, n int) *asyncmp.Model { return asyncmp.New(p, n) }

// AsyncSynchronic returns the synchronic layering for asynchronous message
// passing — the paper's remark after Corollary 5.4: the analogous
// nearly-synchronous submodel in which messages are delayed, never lost,
// and consensus is still impossible.
func AsyncSynchronic(p MPProtocol, n int) *asyncmp.Synchronic { return asyncmp.NewSynchronic(p, n) }

// IteratedImmediateSnapshot returns the wait-free iterated immediate
// snapshot model (one of the extension models of Corollary 7.3); each layer
// is an ordered partition of the processes.
func IteratedImmediateSnapshot(p SMProtocol, n int) *iis.Model { return iis.New(p, n) }

// SnapshotMemory returns the atomic-snapshot shared-memory model under the
// permutation layering (the other extension model of Corollary 7.3).
func SnapshotMemory(p SMProtocol, n int) *snapshot.Model { return snapshot.New(p, n) }

// SyncStMulti returns the t-resilient synchronous model whose layers allow
// up to maxPerRound simultaneous new failures (the Section 6 wasted-faults
// analysis).
func SyncStMulti(p SyncProtocol, n, t, maxPerRound int) *syncmp.MultiModel {
	return syncmp.NewStMulti(p, n, t, maxPerRound)
}

// SyncStGeneral is SyncSt under general-omission failures: failed
// processes also stop receiving. An ablation of the paper's
// sending-omission assumption.
func SyncStGeneral(p SyncProtocol, n, t int) *syncmp.Model { return syncmp.NewStGeneral(p, n, t) }

// MobileFull returns the unrestricted M^mf (arbitrary omission sets, not
// only the S1 prefixes); the S1 submodel's layers are subsets of its
// layers.
func MobileFull(p SyncProtocol, n int) *mobile.FullModel { return mobile.NewFull(p, n) }

// NewOracle returns a horizon-bounded valence oracle over a successor
// function.
func NewOracle(s Successor) *Oracle { return valence.NewOracle(s) }

// Certify exhaustively checks the consensus requirements (agreement,
// validity, decision-by-bound, write-once decisions) over all runs of the
// layered submodel up to `bound` layers. maxVisits caps the search (0 =
// unbounded).
func Certify(m Model, bound, maxVisits int) (*Witness, error) {
	return valence.Certify(m, bound, maxVisits)
}

// AnalyzeLayer reports the similarity and valence structure of S(x), with
// valences computed to the given lookahead horizon.
func AnalyzeLayer(m Model, o *Oracle, x State, horizon int) *LayerReport {
	return valence.AnalyzeLayer(m, o, x, horizon)
}

// BivalentChain constructs a bivalent execution of `target` layers (the
// Theorem 4.2 / Lemma 6.1 adversary), choosing a bivalent successor at
// every step.
func BivalentChain(m Model, o *Oracle, horizon HorizonFunc, target int) (*Chain, error) {
	return valence.BivalentChain(m, o, horizon, target)
}

// ConstHorizon returns the constant lookahead h at every chain depth.
func ConstHorizon(h int) HorizonFunc { return valence.ConstHorizon(h) }

// DecreasingHorizon returns bound-depth (floored at min), the exact
// horizon for protocols deciding within `bound` layers.
func DecreasingHorizon(bound, min int) HorizonFunc { return valence.DecreasingHorizon(bound, min) }

// ErrNodeBudget is returned (wrapped) by ExploreID and its variants when
// the node budget is exhausted; the partial graph explored so far is
// returned alongside it.
var ErrNodeBudget = core.ErrNodeBudget

// IDGraph is the interned CSR state graph: dense uint32 node ids, flat
// edge arrays, per-depth layers, and parent pointers for witness walkback.
type IDGraph = core.IDGraph

// Field is the whole-graph valence field: the valence mask of every node
// of an explored IDGraph, computed in one bottom-up O(V+E) sweep.
type Field = valence.Field

// ExploreID builds the interned CSR state graph of a model to the given
// depth; maxNodes caps the node count (0 = unbounded). On budget
// exhaustion the partial graph is returned together with a wrapped
// ErrNodeBudget.
func ExploreID(m Model, depth, maxNodes int) (*IDGraph, error) {
	return core.ExploreID(m, depth, maxNodes)
}

// ExploreIDParallel is ExploreID with successor enumeration sharded across
// `workers` goroutines (workers <= 0 means GOMAXPROCS); the graph is
// bit-identical to ExploreID's.
func ExploreIDParallel(m Model, depth, maxNodes, workers int) (*IDGraph, error) {
	return core.ExploreIDParallel(m, depth, maxNodes, workers)
}

// ErrNotGraded is returned by CertifyGraph for graphs with same-depth
// shortcut edges (which the asynchronous models produce at small n).
var ErrNotGraded = valence.ErrNotGraded

// CertifyGraph certifies consensus by one forward pass over an already
// materialized graph, with per-(node, input-mask) visited bitsets instead
// of the recursive certifier's memo map. The witness is identical to
// Certify's bit for bit. Graded graphs only (ErrNotGraded otherwise).
func CertifyGraph(g *IDGraph, maxVisits int) (*Witness, error) {
	return valence.CertifyGraph(g, maxVisits)
}

// CertifyFast is Certify through the graph-backed engine: it explores the
// model's IDGraph in parallel and runs CertifyGraph, falling back to the
// recursive certifier for non-graded graphs. The witness is identical to
// Certify's.
func CertifyFast(m Model, bound, maxVisits int) (*Witness, error) {
	return valence.CertifyFast(m, bound, maxVisits)
}

// Ctx is the framework's lightweight cancellation context: a done channel
// plus an optional deadline, polled by the engines at layer/shard
// granularity. A nil *Ctx is valid and never cancels.
type Ctx = resilient.Ctx

// PanicError is the error a panic-safe worker pool recovers a worker
// panic into: shard id, panic value, stack, and a counter snapshot.
type PanicError = resilient.PanicError

// Resilience sentinels: ErrPartial is the root every interruption-family
// error wraps (budget exhaustion, cancellation, deadline, injected
// faults), so errors.Is(err, ErrPartial) identifies any partial result.
var (
	ErrPartial  = resilient.ErrPartial
	ErrCanceled = resilient.ErrCanceled
	ErrDeadline = resilient.ErrDeadline
)

// Supervisor runs checkpointable engine ops under a retry policy:
// exponential backoff with seeded jitter, per-error-class decisions, and a
// degradation ladder, resuming each attempt from the previous attempt's
// checkpoint.
type Supervisor = resilient.Supervisor

// Attempt is what a supervised op receives: the attempt's child context
// (carrying any resume snapshot) plus the degraded worker count to honor.
type Attempt = resilient.Attempt

// Policy configures a Supervisor (attempt/backoff/budget limits,
// classification).
type Policy = resilient.Policy

// Store is the crash-durable checkpoint generation store: atomic
// write-fsync-rename saves, keep-last-K rotation, and corrupt-generation
// fallback on load.
type Store = resilient.Store

// ErrCorruptCheckpoint is returned (wrapped) when a checkpoint file is
// torn, truncated, or fails its section CRCs; a Store falls back to the
// previous generation, a Supervisor fails fast.
var ErrCorruptCheckpoint = resilient.ErrCorruptCheckpoint

// ErrMemory is the soft-memory-limit sentinel; see SetSoftMemLimit.
var ErrMemory = resilient.ErrMemory

// SetSoftMemLimit arms (0 disarms) the advisory heap limit the engines
// poll at layer boundaries; crossing it interrupts the run with a
// checkpoint and an error wrapping ErrMemory, which the Supervisor treats
// as a degradation signal.
func SetSoftMemLimit(bytes int64) { resilient.SetSoftMemLimit(bytes) }

// Background returns a cancelable context with no deadline.
func Background() *Ctx { return resilient.Background() }

// WithCancel returns a context and a function canceling it with
// ErrCanceled.
func WithCancel() (*Ctx, func()) { return resilient.WithCancel() }

// WithDeadline returns a context canceled with ErrDeadline after d, and a
// stop function releasing the timer.
func WithDeadline(d time.Duration) (*Ctx, func()) { return resilient.WithDeadline(d) }

// SaveCheckpoint writes the checkpoint attached to an interruption error
// (if any) to path, reporting whether one was written.
func SaveCheckpoint(path string, err error) (bool, error) {
	return resilient.SaveCheckpoint(path, err)
}

// LoadCheckpoint reads a checkpoint file's sections; hand them to a Ctx
// via SetResume and the interrupted engine resumes where it stopped.
func LoadCheckpoint(path string) ([]resilient.Section, error) {
	return resilient.LoadFile(path)
}

// ExploreIDCtx is ExploreIDParallel under a cancellation context: on
// interruption the error wraps ErrPartial and carries a resumable
// checkpoint; a checkpoint loaded into ctx resumes the interrupted
// exploration and the finished graph is bit-identical to an uninterrupted
// run's.
func ExploreIDCtx(ctx *Ctx, m Model, depth, maxNodes, workers int) (*IDGraph, error) {
	return core.ExploreIDCtx(ctx, m, depth, maxNodes, workers)
}

// CertifyGraphCtx is CertifyGraph under a cancellation context, with
// checkpoint/resume of the certification pass.
func CertifyGraphCtx(ctx *Ctx, g *IDGraph, maxVisits int) (*Witness, error) {
	return valence.CertifyGraphCtx(ctx, g, maxVisits)
}

// CertifyFastCtx is CertifyFast under a cancellation context.
func CertifyFastCtx(ctx *Ctx, m Model, bound, maxVisits int) (*Witness, error) {
	return valence.CertifyFastCtx(ctx, m, bound, maxVisits)
}

// NewFieldCtx computes the valence field of an explored graph — every
// node's mask in one deepest-first sweep, no recursion, no maps — under a
// cancellation context (nil never cancels), with checkpoint/resume of the
// sweep.
func NewFieldCtx(ctx *Ctx, g *IDGraph) (*Field, error) {
	return valence.NewFieldCtx(ctx, g)
}

// NewFieldParallelCtx is NewFieldCtx; workers is ignored.
//
// Deprecated: use NewFieldCtx.
func NewFieldParallelCtx(ctx *Ctx, g *IDGraph, workers int) (*Field, error) {
	return NewFieldCtx(ctx, g)
}

// NewKnowledgeClassesLayer computes the common-knowledge partition of one
// depth layer of a materialized graph, in discovery order.
func NewKnowledgeClassesLayer(g *IDGraph, d int) *KnowledgeClasses {
	return knowledge.NewClassesLayer(g, d)
}

// Similar reports the paper's similarity relation x ~s y and its
// witnessing process.
func Similar(x, y State) (j int, ok bool) { return core.Similar(x, y) }

// AgreeModulo reports whether two states agree modulo process j.
func AgreeModulo(x, y State, j int) bool { return core.AgreeModulo(x, y, j) }

// Topology vocabulary re-exports (Section 7).
type (
	// Vertex is a ⟨process, value⟩ pair.
	Vertex = simplex.Vertex
	// Simplex is a set of vertices with distinct process ids.
	Simplex = simplex.Simplex
	// Complex is a containment-closed set of simplexes.
	Complex = simplex.Complex
	// Problem is a decision problem ⟨I, O, Δ⟩.
	Problem = simplex.Problem
	// DeltaFunc maps input simplexes to allowed output simplexes.
	DeltaFunc = simplex.DeltaFunc
)

// NewComplex returns a complex seeded with the given simplexes (and their
// faces).
func NewComplex(simplexes ...Simplex) *Complex { return simplex.NewComplex(simplexes...) }

// FromValues builds the n-vertex simplex assigning values[i] to process i.
func FromValues(values []int) Simplex { return simplex.FromValues(values) }

// ProtocolViolation describes one conformance problem found by the
// protocol validators.
type ProtocolViolation = proto.Violation

// ValidateSyncProtocol checks a synchronous protocol's contract
// (determinism, send-vector length, write-once decisions) over `rounds`
// failure-free rounds on every binary input for n processes. Run it on
// your protocol before handing it to the analysis engine.
func ValidateSyncProtocol(p SyncProtocol, n, rounds int) []ProtocolViolation {
	return proto.ValidateSync(p, n, rounds)
}

// ValidateSMProtocol is ValidateSyncProtocol's shared-memory analogue.
func ValidateSMProtocol(p SMProtocol, n, phases int) []ProtocolViolation {
	return proto.ValidateSM(p, n, phases)
}
