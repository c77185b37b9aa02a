package core

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/resilient"
)

// handCut is a layer-boundary cut of a five-node graph: initial nodes 0
// and 1, nodes 2 and 3 at depth 1, node 4 at depth 2, the unexpanded
// frontier. Adjacent fields of one type hold distinct values (Depth,
// MaxNodes and NextDepth; Inits, EdgeStart and EdgeTo), so a decoder that
// reads two of them in swapped order returns a different snapshot. Its
// edges are labeled x, y, x, z, y, x: ids into a keyed cache's labels,
// listed in the order z, y, x, so that the ids differ from the indexes of
// the encoded first-occurrence table.
func handCut() *ExploreCheckpoint {
	c := NewKeyedCache(labelsOnly{"z", "y", "x"})
	z, y, x := uint32(0), uint32(1), uint32(2)
	return &ExploreCheckpoint{Model: "hand", Depth: 4, MaxNodes: 50, NextDepth: 2, g: &IDGraph{
		Keys:       []string{"a", "b", "c", "d", "e"},
		DepthOf:    []int32{0, 0, 1, 1, 2},
		Inits:      []uint32{0, 1},
		EdgeStart:  []uint32{0, 2, 3, 5, 6},
		EdgeTo:     []uint32{2, 3, 3, 4, 2, 4},
		EdgeAction: []uint32{x, y, x, z, y, x},
		Cache:      c,
	}}
}

// labelsOnly is a keyed model with the given labels and no successors.
type labelsOnly []string

func (l labelsOnly) AppendCacheKey(dst []byte, x State) []byte { return AppendKeyOf(x, dst) }
func (l labelsOnly) Labels() []string                          { return l }
func (l labelsOnly) SuccessorsKeyed(State, Prober)             {}

func encodeExplore(t *testing.T, ck *ExploreCheckpoint) []byte {
	t.Helper()
	sections, err := ck.Sections()
	if err != nil {
		t.Fatal(err)
	}
	return sections[0].Data
}

// TestExploreCheckpointRoundTrip: decoding the encoded cut returns every
// field unchanged, and every strict prefix of the section is rejected with
// ErrBadCheckpoint.
func TestExploreCheckpointRoundTrip(t *testing.T) {
	ck := handCut()
	data := encodeExplore(t, ck)
	got, err := DecodeExploreCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	g := ck.g
	want := &ExploreCheckpoint{
		Model: ck.Model, Depth: ck.Depth, MaxNodes: ck.MaxNodes, NextDepth: ck.NextDepth,
		keys: g.Keys, depthOf: g.DepthOf, inits: g.Inits, edgeStart: g.EdgeStart,
		edgeTo: g.EdgeTo, labels: []string{"x", "y", "z"}, edgeLabel: []uint32{0, 1, 0, 2, 1, 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	for i := range data {
		if _, err := DecodeExploreCheckpoint(data[:i]); !errors.Is(err, resilient.ErrBadCheckpoint) {
			t.Fatalf("prefix of %d of %d bytes: err = %v, want ErrBadCheckpoint", i, len(data), err)
		}
	}
}

// TestExploreCheckpointFraming breaks each layer-framing rule of a decoded
// cut in turn; validate must name the broken rule.
func TestExploreCheckpointFraming(t *testing.T) {
	for _, c := range []struct {
		name, want string
		patch      func(ck *ExploreCheckpoint)
	}{
		{"depth skips a layer", "does not continue the BFS layers", func(ck *ExploreCheckpoint) {
			ck.depthOf[2], ck.depthOf[3], ck.depthOf[4] = 2, 2, 3
			ck.NextDepth = 3
		}},
		{"deepest depth is not the next depth", "deepest layer is not the next depth", func(ck *ExploreCheckpoint) {
			ck.depthOf[4] = 1
		}},
		{"next depth at the bound", "not below the depth bound", func(ck *ExploreCheckpoint) {
			ck.Depth = 2
		}},
		{"edge rows decrease", "edge rows decrease", func(ck *ExploreCheckpoint) {
			ck.edgeStart[2] = 1
		}},
		{"edge rows past the next depth", "do not frame the 4 nodes above depth 2", func(ck *ExploreCheckpoint) {
			ck.edgeStart = append(ck.edgeStart, 6)
		}},
		{"first in-edge from the same layer", "first in-edge of node 3 does not come from depth 0", func(ck *ExploreCheckpoint) {
			// Only node 2, at depth 1 like node 3, reaches node 3.
			ck.edgeTo[1], ck.edgeTo[2], ck.edgeTo[4] = 2, 2, 3
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ck, err := DecodeExploreCheckpoint(encodeExplore(t, handCut()))
			if err != nil {
				t.Fatal(err)
			}
			c.patch(ck)
			if err := ck.validate(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("validate: err = %v, want one naming %q", err, c.want)
			}
		})
	}
}

// TestExploreCheckpointBoundsCounts: a section that claims 1<<22 node keys,
// or 1<<22 action names, in a few bytes is rejected before anything is
// sized from the claim.
func TestExploreCheckpointBoundsCounts(t *testing.T) {
	for _, tail := range []func(e *resilient.Enc){
		func(e *resilient.Enc) { e.Int(1 << 22) },
		func(e *resilient.Enc) {
			e.Strs(nil)
			for range 4 {
				e.Int(0)
			}
			e.Int(1 << 22)
		},
	} {
		e := resilient.NewEnc(0)
		e.Str("m")
		e.Int(3)
		e.Int(0)
		e.Int(1)
		tail(e)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeExploreCheckpoint(e.Bytes())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, resilient.ErrBadCheckpoint) {
			t.Errorf("err = %v, want ErrBadCheckpoint", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Errorf("decoding a %d-byte section allocated %d bytes", len(e.Bytes()), alloc)
		}
	}
}
