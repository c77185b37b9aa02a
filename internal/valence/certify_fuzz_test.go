package valence_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/asyncmp"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/iis"
	"repro/internal/mobile"
	"repro/internal/proto"
	"repro/internal/protocols"
	"repro/internal/shmem"
	"repro/internal/snapshot"
	"repro/internal/syncmp"
	"repro/internal/tasks"
	"repro/internal/valence"
)

// ownInput is a test-only message-passing protocol that decides its own
// input at once and then floods it, phase after phase. No shipped
// asynchronous protocol certifies OK, because a starved process stays
// undecided; this one does, from uniform inputs, so the engine has to walk
// every run to the bound.
//
// Local state encoding: phase | input.
type ownInput struct{}

var _ proto.MPProtocol = ownInput{}

func (ownInput) Name() string { return "own-input" }

func (ownInput) Init(n, id, input int) string { return proto.Join("0", strconv.Itoa(input)) }

// ownInputFields splits a local state into its phase and its input.
func ownInputFields(state string) (phase, input int) {
	f, _ := proto.Split(state)
	phase, _ = strconv.Atoi(f[0])
	input, _ = strconv.Atoi(f[1])
	return phase, input
}

// Send broadcasts the input (one slot per possible destination, as the
// shipped protocols do).
func (ownInput) Send(state string) []string {
	_, in := ownInputFields(state)
	out := make([]string, 16)
	for i := range out {
		out[i] = strconv.Itoa(in)
	}
	return out
}

func (ownInput) Receive(state string, _ [][]string) string {
	phase, in := ownInputFields(state)
	return proto.Join(strconv.Itoa(phase+1), strconv.Itoa(in))
}

func (ownInput) Decide(state string) (int, bool) {
	_, in := ownInputFields(state)
	return in, true
}

// fuzzCertifyCase is one differential case: a model, the initial states
// the runs start from, the bound, and the k of the k-set agreement task.
type fuzzCertifyCase struct {
	name  string
	m     core.Model
	inits []core.State
	bound int
	k     int
}

// fuzzFamilies are the model families FuzzCertify samples. maxBound caps
// the bound at n = 3, where the asynchronous graphs grow past what a seed
// can afford under plain go test; at n = 2 every family runs to bound 4.
var fuzzFamilies = []struct {
	name     string
	maxBound int
	build    func(r *rand.Rand, n, bound int) (core.Model, bool)
}{
	{"syncst", 4, func(r *rand.Rand, n, bound int) (core.Model, bool) {
		return syncmp.NewSt(syncProtocol(r, bound), n, 1), false
	}},
	{"mobile", 4, func(r *rand.Rand, n, bound int) (core.Model, bool) {
		return mobile.New(syncProtocol(r, bound), n), false
	}},
	{"shmem", 4, func(r *rand.Rand, n, bound int) (core.Model, bool) {
		return shmem.New(protocols.SMVote{Phases: 1 + r.Intn(bound)}, n), false
	}},
	{"snapshot", 4, func(r *rand.Rand, n, bound int) (core.Model, bool) {
		return snapshot.New(protocols.SMVote{Phases: 1 + r.Intn(bound)}, n), false
	}},
	{"iis", 3, func(r *rand.Rand, n, bound int) (core.Model, bool) {
		return iis.New(protocols.SMVote{Phases: 1 + r.Intn(bound)}, n), false
	}},
	{"asyncmp", 3, func(r *rand.Rand, n, bound int) (core.Model, bool) {
		p, uniform := mpProtocol(r, bound)
		return asyncmp.New(p, n), uniform
	}},
	{"asyncsynchronic", 3, func(r *rand.Rand, n, bound int) (core.Model, bool) {
		p, uniform := mpProtocol(r, bound)
		return asyncmp.NewSynchronic(p, n), uniform
	}},
}

func syncProtocol(r *rand.Rand, bound int) proto.SyncProtocol {
	switch r.Intn(4) {
	case 0:
		return protocols.EarlyFloodSet{MaxRounds: 1 + r.Intn(bound)}
	case 1:
		return protocols.ConstantDecider{Value: r.Intn(2)}
	case 2:
		return protocols.FlickerDecider{}
	default:
		return protocols.FloodSet{Rounds: 1 + r.Intn(bound)}
	}
}

// mpProtocol picks a message-passing protocol; uniform reports whether its
// runs must start from uniform inputs (ownInput, which then certifies OK).
func mpProtocol(r *rand.Rand, bound int) (proto.MPProtocol, bool) {
	switch r.Intn(3) {
	case 0:
		return ownInput{}, true
	case 1:
		return protocols.MPCoordinator{Phases: 1 + r.Intn(bound)}, false
	default:
		return protocols.MPFlood{Phases: 1 + r.Intn(bound)}, false
	}
}

// randomCertifyCase maps a seed to a case: a family, a protocol, n in
// {2, 3}, a bound from 1 to 4 (capped per family at n = 3), a nonempty
// subset of the binary initial states, and k in 1..n.
func randomCertifyCase(seed uint64) fuzzCertifyCase {
	r := rand.New(rand.NewSource(int64(seed)))
	f := fuzzFamilies[r.Intn(len(fuzzFamilies))]
	n := 2 + r.Intn(2)
	bound := 1 + r.Intn(4)
	if n == 3 && bound > f.maxBound {
		bound = f.maxBound
	}
	m, uniform := f.build(r, n, bound)
	all := m.Inits()
	var pool []core.State
	for _, x := range all {
		if !uniform || isUniform(x) {
			pool = append(pool, x)
		}
	}
	var inits []core.State
	for len(inits) == 0 {
		for _, x := range pool {
			if r.Intn(2) == 0 {
				inits = append(inits, x)
			}
		}
	}
	k := 1 + r.Intn(n)
	name := fmt.Sprintf("%s %s n=%d bound=%d inits=%d/%d k=%d", f.name, m.Name(), n, bound, len(inits), len(all), k)
	return fuzzCertifyCase{name: name, m: m, inits: inits, bound: bound, k: k}
}

func isUniform(x core.State) bool {
	in := x.(core.Input)
	for i := 1; i < x.N(); i++ {
		if in.InputOf(i) != in.InputOf(0) {
			return false
		}
	}
	return true
}

// FuzzCertify is the differential target for the one certifier: consensus
// through valence.Certify and the k-set agreement task through
// decision.CertifyTask must both equal their recursive references — kind,
// detail, witness actions and states, and Explored — on sampled models,
// protocols, bounds and initial states.
func FuzzCertify(f *testing.F) {
	for seed := uint64(0); seed < 240; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		c := randomCertifyCase(seed)
		t.Log(c.name)
		m := core.WithInits(c.m, c.inits)
		want, err := valence.CertifyRef(m, c.bound, 0)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		got, err := valence.Certify(nil, m, c.bound, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		witnessesIdentical(t, want, got)

		delta := tasks.KSetAgreement(c.m.Inits()[0].N(), c.k).Problem.Delta
		wantT, err := certifyTaskRef(c.m, c.inits, delta, c.bound, 0)
		if err != nil {
			t.Fatalf("%s: task reference: %v", c.name, err)
		}
		gotT, err := decision.CertifyTask(nil, c.m, c.inits, delta, c.bound, 0)
		if err != nil {
			t.Fatalf("%s: task: %v", c.name, err)
		}
		taskWitnessesIdentical(t, wantT, gotT)
	})
}

// taskWitnessesIdentical is witnessesIdentical for task witnesses.
func taskWitnessesIdentical(t *testing.T, want, got *decision.TaskWitness) {
	t.Helper()
	if got.Kind != want.Kind || got.Detail != want.Detail || got.Explored != want.Explored {
		t.Fatalf("task verdict (%v, %q, %d), want (%v, %q, %d)",
			got.Kind, got.Detail, got.Explored, want.Kind, want.Detail, want.Explored)
	}
	witnessesIdentical(t,
		&valence.Witness{Exec: want.Exec},
		&valence.Witness{Exec: got.Exec})
}

// TestCertifyWalksEveryLag: ownInput from uniform inputs certifies OK on a
// non-graded asynchronous graph, so the engine must visit every (class,
// node, lag) triple a run reaches — counted here by a breadth-first walk
// over (node, run length) pairs — and some node at a lag above 0.
func TestCertifyWalksEveryLag(t *testing.T) {
	const n, bound = 2, 4
	for _, mk := range []func() core.Model{
		func() core.Model { return asyncmp.New(ownInput{}, n) },
		func() core.Model { return asyncmp.NewSynchronic(ownInput{}, n) },
	} {
		m := uniformOnly(mk())
		g, err := core.ExploreIDCtx(nil, m, bound, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if g.Graded() {
			t.Fatalf("%s: graph is graded", m.Name())
		}
		w, err := valence.CertifyGraph(nil, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := valence.CertifyRef(uniformOnly(mk()), bound, 0)
		if err != nil {
			t.Fatal(err)
		}
		witnessesIdentical(t, want, w)
		if w.Kind != valence.OK {
			t.Fatalf("%s: %v (%s), want ok", m.Name(), w.Kind, w.Detail)
		}
		// Uniform inputs give every root its own class, so the triples are
		// the (root, node, lag) triples.
		type triple struct{ root, node, lag int }
		seen := map[triple]bool{}
		nodes := map[[2]int]bool{}
		for ri, r := range g.Inits {
			layer := []uint32{r}
			for d := 0; d <= bound; d++ {
				var next []uint32
				for _, u := range layer {
					k := triple{ri, int(u), d - int(g.DepthOf[u])}
					if seen[k] {
						continue
					}
					seen[k] = true
					nodes[[2]int{ri, int(u)}] = true
					if d < bound {
						_, to := g.Out(u)
						next = append(next, to...)
					}
				}
				layer = next
			}
		}
		if w.Explored != len(seen) {
			t.Errorf("%s: explored %d, want %d (class, node, lag) triples", m.Name(), w.Explored, len(seen))
		}
		if len(seen) == len(nodes) {
			t.Errorf("%s: no node is reached at a lag above 0", m.Name())
		}
	}
}
