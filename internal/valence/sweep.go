package valence

import (
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/obs"
)

// Sweep is the steady-state, zero-allocation front end to the field sweep
// and the graph certifier. It owns a scratch arena and the reusable result
// objects; after a warmup call per graph shape, Field and CertifyGraph
// allocate nothing (verified with testing.AllocsPerRun in alloc_test.go),
// which is what the inner loops of the experiment drivers and benchmarks
// want — thousands of sweeps over the same few graphs with no GC traffic.
//
// Lifetime rule (inherited from the arena): everything a Sweep returns —
// the *Field, its planes, the *Witness — is valid only until the next call
// on the same Sweep. Callers that need to keep a result across calls must
// copy it out (Field.Masks materializes one). A Sweep is not safe for
// concurrent use.
//
// The zero value is ready to use.
type Sweep struct {
	ar arena.Arena
	f  Field
	c  graphCertifier
}

// Field computes the valence field of g into reused, arena-backed planes.
// The result is bit-identical to NewFieldCtx's, and so are the errors: an
// injected chaos fault or the soft memory gate interrupts the sweep, and
// the partial field is not returned.
func (s *Sweep) Field(g *core.IDGraph) (*Field, error) {
	s.ar.Reset()
	s.publishBytes()
	if err := s.f.compute(nil, g, &s.ar); err != nil {
		return nil, err
	}
	return &s.f, nil
}

// CertifyGraph certifies g exactly as the package-level CertifyGraph (with
// no context), with visited bitsets drawn from the reused arena.
func (s *Sweep) CertifyGraph(g *core.IDGraph, maxVisits int) (*Witness, error) {
	s.ar.Reset()
	s.publishBytes()
	return s.c.certify(nil, g, maxVisits, &s.ar)
}

// Bytes reports the arena's steady-state footprint in bytes.
func (s *Sweep) Bytes() int { return s.ar.Bytes() }

// publishBytes exports the arena footprint gauge when a recorder is active.
func (s *Sweep) publishBytes() {
	if rec := obs.Active(); rec != nil {
		rec.Set("arena.bytes", int64(s.ar.Bytes()))
	}
}
