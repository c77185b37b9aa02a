package valence

import (
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// LayerReport is the result of analyzing one layer S(x): the distinct
// successor states of x, their similarity structure, and their valence
// structure within their horizons.
type LayerReport struct {
	// States are the distinct successor states, in first-occurrence order
	// of the successor enumeration.
	States []core.State
	// Actions[i] lists the action labels that produced States[i].
	Actions [][]string

	// SimilarityConnected reports whether (States, ~s) is connected.
	SimilarityConnected bool
	// SimilarityComponents is the number of connected components of
	// (States, ~s).
	SimilarityComponents int
	// SDiameter is the diameter of (States, ~s) (max over components if
	// disconnected).
	SDiameter int

	// Valences[i] is the horizon-bounded valence mask of States[i].
	Valences []uint8
	// ValenceConnected reports whether (States, ~v) is connected: either
	// some state is bivalent, or all states are univalent with the same
	// value. Null-valent states (no reachable decision within the horizon)
	// disconnect the valence graph unless they are the only state.
	ValenceConnected bool
	// BivalentIdx are the indices of bivalent states.
	BivalentIdx []int
	// NullValentIdx are the indices of null-valent states (horizon too
	// small to observe any decision).
	NullValentIdx []int
}

// Layer collects the distinct states of S(x) with their action labels.
func Layer(succ core.Successor, x core.State) (states []core.State, actions [][]string) {
	index := make(map[string]int)
	for _, s := range succ.Successors(x) {
		k := s.State.Key()
		i, seen := index[k]
		if !seen {
			i = len(states)
			index[k] = i
			states = append(states, s.State)
			actions = append(actions, nil)
		}
		actions[i] = append(actions[i], s.Action)
	}
	return states, actions
}

// SimilarityGraph builds the graph (states, ~s). x ~s y requires the two
// states to agree on everything except one process j's component, so rather
// than testing all pairs, each state is hashed under its n projection keys
// (environment plus every local except process j's) and core.Similar runs
// only within buckets of states that already agree modulo one process —
// near-linear for the dispersed layers the experiments produce, and
// identical in output to the all-pairs construction (the in-bucket Similar
// call keeps key collisions and the non-failed-witness condition exact).
// similarityBucketMin is the set size below which the all-pairs loop beats
// building projection-key buckets (string hashing dominates on tiny sets).
const similarityBucketMin = 48

func SimilarityGraph(states []core.State) *graph.Undirected {
	g := graph.NewUndirected(len(states))
	if len(states) < 2 {
		return g
	}
	if len(states) < similarityBucketMin {
		for i := 0; i < len(states); i++ {
			for j := i + 1; j < len(states); j++ {
				if _, ok := core.Similar(states[i], states[j]); ok {
					g.AddEdge(i, j)
				}
			}
		}
		return g
	}
	// Bucket keys are replayed in first-insertion order (a function of the
	// states slice), so the edge order — and with it the undirected graph's
	// adjacency lists — is deterministic across runs.
	buckets := make(map[string][]int, len(states))
	order := make([]string, 0, len(states))
	for idx, x := range states {
		for j := 0; j < x.N(); j++ {
			k := projectionKey(x, j)
			if _, ok := buckets[k]; !ok {
				order = append(order, k)
			}
			buckets[k] = append(buckets[k], idx)
		}
	}
	type pair struct{ a, b int }
	// A similar pair can share up to n buckets; record each edge once.
	seen := make(map[pair]bool)
	for _, k := range order {
		b := buckets[k]
		for i := 0; i < len(b); i++ {
			for j := i + 1; j < len(b); j++ {
				p := pair{b[i], b[j]}
				if seen[p] {
					continue
				}
				seen[p] = true
				if _, ok := core.Similar(states[p.a], states[p.b]); ok {
					g.AddEdge(p.a, p.b)
				}
			}
		}
	}
	return g
}

// projectionKey is state x with process j's local component masked out: two
// states agreeing modulo j hash to the same key. The removed position j is
// part of the key so different maskings never share a bucket.
func projectionKey(x core.State, j int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(j))
	b.WriteByte('\x1f')
	b.WriteString(x.EnvKey())
	for i := 0; i < x.N(); i++ {
		if i == j {
			continue
		}
		b.WriteByte('\x1f')
		b.WriteString(x.Local(i))
	}
	return b.String()
}

// ValenceConnected reports whether a set of valence masks forms a connected
// (X, ~v) graph. Per the paper: X is valence connected exactly if either all
// states are v-univalent for one common v, or some state is bivalent (and no
// state is null-valent, which can only arise here from a too-small horizon).
func ValenceConnected(masks []uint8) bool {
	if len(masks) == 0 {
		return true
	}
	var union uint8
	bivalent := false
	for _, m := range masks {
		if m == 0 {
			// Null-valent: no decision reachable within the horizon. The
			// state shares no valence with anything (itself included), so we
			// report the set as not valence connected to flag the horizon
			// problem.
			return false
		}
		if m == V0|V1 {
			bivalent = true
		}
		union |= m
	}
	return bivalent || union == V0 || union == V1
}

// AnalyzeNode computes the layer report of S(x) for the state x at node u:
// the successor states are read off u's CSR edges (distinct targets in
// first-edge order, each with its action labels) and their valences off
// the field, so each successor at depth d is classified within its
// horizon B-d.
func (f *Field) AnalyzeNode(u uint32) *LayerReport {
	g := f.g
	r := &LayerReport{}
	labels, to := g.Out(u)
	index := make(map[uint32]int, len(to))
	var nodes []uint32
	for i, v := range to {
		j, seen := index[v]
		if !seen {
			j = len(r.States)
			index[v] = j
			nodes = append(nodes, v)
			r.States = append(r.States, g.States[v])
			r.Actions = append(r.Actions, nil)
		}
		r.Actions[j] = append(r.Actions[j], g.Label(labels[i]))
	}

	sg := SimilarityGraph(r.States)
	r.SimilarityConnected = sg.Connected()
	r.SimilarityComponents = len(sg.Components())
	r.SDiameter, _ = sg.Diameter()

	r.Valences = make([]uint8, len(nodes))
	for i, v := range nodes {
		r.Valences[i] = f.Mask(v)
		switch r.Valences[i] {
		case V0 | V1:
			r.BivalentIdx = append(r.BivalentIdx, i)
		case 0:
			r.NullValentIdx = append(r.NullValentIdx, i)
		}
	}
	r.ValenceConnected = ValenceConnected(r.Valences)
	return r
}

// SetSDiameter returns the s-diameter of an arbitrary set of states (the
// diameter of its similarity graph) and whether the set is similarity
// connected. Used for the Lemma 7.6 diameter-recurrence experiments.
func SetSDiameter(states []core.State) (diameter int, connected bool) {
	return SimilarityGraph(states).Diameter()
}
