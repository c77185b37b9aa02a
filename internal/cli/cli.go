// Package cli provides the shared model construction used by the command
// line tools: a model spec (model family, n, t, protocol decision bound) is
// resolved into a core.Model plus metadata.
package cli

import (
	"fmt"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/iis"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/shmem"
	"repro/internal/snapshot"
	"repro/internal/syncmp"
)

// Spec selects a model/protocol combination.
type Spec struct {
	// Model is one of "mobile", "sync-s1", "sync-st", "shmem", "asyncmp",
	// "iis".
	Model string
	// N is the number of processes, 2..MaxN (2..6 are practical).
	N int
	// T is the failure budget (sync-st only).
	T int
	// Bound is the protocol's decision bound in layers/rounds/phases.
	Bound int
	// FullInfo selects the (non-deciding) full-information protocol
	// instead of the flooding consensus candidate.
	FullInfo bool
}

// MaxN is the largest process count Build accepts. Every model enumerates
// its 2^n initial states up front (65,536 at n=16) and keeps process sets
// in uint64 masks, so beyond it a model either exhausts memory building
// Con_0 or silently wraps its masks: at n=64 a model has no initial state,
// and at n=63 building them panics.
const MaxN = 16

// Models lists the accepted model names.
func Models() []string {
	return []string{"mobile", "sync-s1", "sync-st", "shmem", "asyncmp", "asyncmp-sync", "iis", "snapshot"}
}

// Build resolves the spec.
func Build(s Spec) (core.Model, error) {
	if s.N < 2 || s.N > MaxN {
		return nil, fmt.Errorf("cli: n must be in 2..%d, got %d", MaxN, s.N)
	}
	if s.Bound < 1 && !s.FullInfo {
		return nil, fmt.Errorf("cli: bound must be >= 1, got %d", s.Bound)
	}
	switch s.Model {
	case "mobile":
		return mobile.New(s.syncProtocol(), s.N), nil
	case "sync-s1":
		return syncmp.NewS1(s.syncProtocol(), s.N), nil
	case "sync-st":
		if s.T < 1 || s.T > s.N-2 {
			return nil, fmt.Errorf("cli: sync-st needs 1 <= t <= n-2, got t=%d n=%d", s.T, s.N)
		}
		return syncmp.NewSt(s.syncProtocol(), s.N, s.T), nil
	case "shmem":
		if s.FullInfo {
			return shmem.New(protocols.SMFullInfo{}, s.N), nil
		}
		return shmem.New(protocols.SMVote{Phases: s.Bound}, s.N), nil
	case "iis":
		if s.FullInfo {
			return iis.New(protocols.SMFullInfo{}, s.N), nil
		}
		return iis.New(protocols.SMVote{Phases: s.Bound}, s.N), nil
	case "asyncmp":
		if s.FullInfo {
			return asyncmp.New(protocols.MPFullInfo{}, s.N), nil
		}
		return asyncmp.New(protocols.MPFlood{Phases: s.Bound}, s.N), nil
	case "asyncmp-sync":
		if s.FullInfo {
			return asyncmp.NewSynchronic(protocols.MPFullInfo{}, s.N), nil
		}
		return asyncmp.NewSynchronic(protocols.MPFlood{Phases: s.Bound}, s.N), nil
	case "snapshot":
		if s.FullInfo {
			return snapshot.New(protocols.SMFullInfo{}, s.N), nil
		}
		return snapshot.New(protocols.SMVote{Phases: s.Bound}, s.N), nil
	default:
		return nil, fmt.Errorf("cli: unknown model %q (want one of %v)", s.Model, Models())
	}
}

func (s Spec) syncProtocol() interface {
	Name() string
	Init(n, id, input int) string
	Send(state string) []string
	Deliver(state string, in []string) string
	Decide(state string) (int, bool)
} {
	if s.FullInfo {
		return protocols.FullInfo{}
	}
	return protocols.FloodSet{Rounds: s.Bound}
}
