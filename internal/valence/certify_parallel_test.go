package valence_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mobile"
	"repro/internal/protocols"
	"repro/internal/syncmp"
	"repro/internal/valence"
)

// certifyParallel is the parallel certification pipeline CertifyFast runs:
// explore the model's graph with workers goroutines, then certify it with
// the graph certifier.
func certifyParallel(m core.Model, bound, maxVisits, workers int) (*valence.Witness, error) {
	g, err := core.ExploreIDParallel(m, bound, 0, workers)
	if err != nil {
		return nil, err
	}
	return valence.CertifyGraph(g, maxVisits)
}

// TestCertifyParallelPropertyMatchesSerial is the determinism property of
// parallel certification: across randomized models (family, size, protocol
// parameters, bound) and exploration worker counts, certifying the
// parallel-explored graph must return the same verdict as the serial
// recursive certifier, and on violation the same earliest-init witness —
// same violating initial state and the identical action sequence leading
// to the violation. Run it under -race to also exercise the shared
// successor cache from concurrent workers.
func TestCertifyParallelPropertyMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))

	type build func(rounds, n, tf int) core.Model
	families := []struct {
		name  string
		build build
	}{
		{"syncmp-st-floodset", func(rounds, n, tf int) core.Model {
			return syncmp.NewSt(protocols.FloodSet{Rounds: rounds}, n, tf)
		}},
		{"syncmp-st-earlyflood", func(rounds, n, tf int) core.Model {
			return syncmp.NewSt(protocols.EarlyFloodSet{MaxRounds: rounds}, n, tf)
		}},
		{"mobile-floodset", func(rounds, n, tf int) core.Model {
			return mobile.New(protocols.FloodSet{Rounds: rounds}, n)
		}},
	}

	const trials = 12
	for trial := 0; trial < trials; trial++ {
		fam := families[rng.Intn(len(families))]
		n := 3 + rng.Intn(2)      // 3 or 4 processes
		tf := 1 + rng.Intn(n-2)   // 1 .. n-2 failures
		rounds := 1 + rng.Intn(2) // protocol parameter
		bound := 1 + rng.Intn(2)  // certified layers
		workers := []int{1, 2, 3, 1 + rng.Intn(8)}

		m := fam.build(rounds, n, tf)
		name := fmt.Sprintf("trial%02d-%s-n%d-t%d-r%d-b%d", trial, fam.name, n, tf, rounds, bound)
		t.Run(name, func(t *testing.T) {
			serial, err := valence.Certify(m, bound, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workers {
				par, err := certifyParallel(m, bound, 0, w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if par.Kind != serial.Kind {
					t.Fatalf("workers=%d: kind %v != serial %v", w, par.Kind, serial.Kind)
				}
				if serial.Kind == valence.OK {
					continue
				}
				if par.Exec.Init.Key() != serial.Exec.Init.Key() {
					t.Errorf("workers=%d: witness init differs:\n  par    %s\n  serial %s",
						w, par.Exec.Init.Key(), serial.Exec.Init.Key())
				}
				if len(par.Exec.Steps) != len(serial.Exec.Steps) {
					t.Fatalf("workers=%d: witness length %d != %d", w, len(par.Exec.Steps), len(serial.Exec.Steps))
				}
				for i := range par.Exec.Steps {
					if par.Exec.Steps[i].Action != serial.Exec.Steps[i].Action {
						t.Errorf("workers=%d: step %d action %q != %q",
							w, i, par.Exec.Steps[i].Action, serial.Exec.Steps[i].Action)
					}
				}
			}
		})
	}
}

// TestCertifyParallelMatchesSequential: on one correct and one refuted
// protocol, parallel certification returns the serial verdict, visit count
// and witness at every worker count.
func TestCertifyParallelMatchesSequential(t *testing.T) {
	mOK := syncmp.NewSt(protocols.FloodSet{Rounds: 2}, 3, 1)
	mBad := mobile.New(protocols.FloodSet{Rounds: 2}, 3)
	sOK, err := valence.Certify(mOK, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sBad, err := valence.Certify(mBad, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		pOK, err := certifyParallel(mOK, 2, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		witnessesIdentical(t, sOK, pOK)
		pBad, err := certifyParallel(mBad, 2, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		witnessesIdentical(t, sBad, pBad)
	}
}

// TestCertifyParallelBudget: the visit budget propagates as ErrBudget.
func TestCertifyParallelBudget(t *testing.T) {
	m := syncmp.NewSt(protocols.FloodSet{Rounds: 3}, 4, 2)
	if _, err := certifyParallel(m, 3, 5, 4); !errors.Is(err, valence.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}
