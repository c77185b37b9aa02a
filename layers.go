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
//   - NewFieldCtx sweeps the valence of every state of a graph explored
//     with ExploreIDCtx; the Field then answers every valence question:
//     Field.BivalentChain constructs the Theorem 4.2 / Lemma 6.1 adversary
//     run, Field.AnalyzeNode reports the similarity and valence structure
//     of a layer S(x), Field.Width counts bivalent states per layer;
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
	"errors"
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
	// LayerReport is the connectivity analysis of one layer S(x).
	LayerReport = valence.LayerReport
	// Chain is a bivalent chain construction result.
	Chain = valence.Chain
	// Witness is the outcome of certifying a protocol.
	Witness = valence.Witness
	// WitnessKind classifies certification outcomes.
	WitnessKind = valence.WitnessKind
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

// Certify exhaustively checks the consensus requirements (agreement,
// validity, decision-by-bound, write-once decisions) over all runs of the
// layered submodel up to `bound` layers: it explores the model's IDGraph
// and certifies every run over it. maxVisits caps the certifier's visits
// (0 = unbounded); the exploration to the bound is never capped.
func Certify(m Model, bound, maxVisits int) (*Witness, error) {
	return valence.Certify(nil, m, bound, maxVisits)
}

// ErrNodeBudget is returned (wrapped) by ExploreIDCtx when the node
// budget is exhausted; the partial graph explored so far is
// returned alongside it.
var ErrNodeBudget = core.ErrNodeBudget

// IDGraph is the interned CSR state graph: dense uint32 node ids, flat
// edge arrays, per-depth layers, and parent pointers for witness walkback.
type IDGraph = core.IDGraph

// Field is the whole-graph valence field: the valence mask of every node
// of an explored IDGraph, computed in one bottom-up O(V+E) sweep. For a
// graph explored to depth B, a node at depth d holds its valence within
// horizon B-d.
type Field = valence.Field

// ErrNotGraded is returned by CertifyGraphCtx for graphs with same-depth
// shortcut edges (which the asynchronous models produce at small n).
var ErrNotGraded = errors.New("layers: graph is not graded")

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
// exponential backoff with seeded jitter, and one retry rule — an error in
// the ErrPartial family that is not a bad checkpoint is retried, resuming
// from the failed attempt's checkpoint; any other error fails.
type Supervisor = resilient.Supervisor

// Attempt is what a supervised op receives: the attempt's child context,
// carrying any resume snapshot, and the attempt number.
type Attempt = resilient.Attempt

// Policy configures a Supervisor (attempt limit, backoff, jitter seed).
type Policy = resilient.Policy

// Store is the crash-durable checkpoint generation store: atomic
// write-fsync-rename saves, keep-last-K rotation, and corrupt-generation
// fallback on load.
type Store = resilient.Store

// ErrCorruptCheckpoint is returned (wrapped) when a checkpoint file is
// torn, truncated, or fails its section CRCs; a Store falls back to the
// previous generation, a Supervisor fails fast.
var ErrCorruptCheckpoint = resilient.ErrCorruptCheckpoint

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

// ExploreIDCtx builds the interned CSR state graph of a model to the given
// depth; maxNodes caps the node count (0 = unbounded). On budget
// exhaustion the partial graph is returned together with a wrapped
// ErrNodeBudget. Successor enumeration is sharded across `workers`
// goroutines (workers <= 0 means GOMAXPROCS); the graph is the same for
// every worker count. A nil ctx never cancels; on interruption the error
// wraps ErrPartial and carries a resumable checkpoint, and a checkpoint
// loaded into ctx resumes the interrupted exploration to a graph
// bit-identical to an uninterrupted run's.
func ExploreIDCtx(ctx *Ctx, m Model, depth, maxNodes, workers int) (*IDGraph, error) {
	return core.ExploreIDCtx(ctx, m, depth, maxNodes, workers)
}

// CertifyGraphCtx certifies consensus over an already materialized graph
// graded by depth, under a cancellation context, with checkpoint/resume of
// the certification pass; the witness is Certify's bit for bit. It refuses
// a non-graded graph with ErrNotGraded, although the engine beneath it
// certifies every graph.
func CertifyGraphCtx(ctx *Ctx, g *IDGraph, maxVisits int) (*Witness, error) {
	if !g.Graded() {
		return nil, ErrNotGraded
	}
	return valence.CertifyGraph(ctx, g, maxVisits)
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
// depth layer of a materialized graph, in discovery order, under a
// cancellation context (nil never cancels).
func NewKnowledgeClassesLayer(ctx *Ctx, g *IDGraph, d int) (*KnowledgeClasses, error) {
	return knowledge.NewClassesLayer(ctx, g, d)
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

// ValidateMPProtocol is ValidateSyncProtocol's message-passing analogue.
// It also checks that Receive neither keeps nor modifies its inbox, which
// the asynchronous models reuse between calls.
func ValidateMPProtocol(p MPProtocol, n, rounds int) []ProtocolViolation {
	return proto.ValidateMP(p, n, rounds)
}
