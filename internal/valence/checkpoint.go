package valence

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/resilient"
)

// graphFingerprint hashes the deterministic identity of a materialized
// graph — node keys, CSR framing, edge targets and actions, depth bound —
// into one 64-bit value. Valence checkpoints carry it instead of a model
// name: they snapshot an analysis over a graph, and a resumed process
// re-materializes the graph deterministically, so equal fingerprints mean
// the snapshot's node ids and bitsets line up bit-for-bit.
func graphFingerprint(g *core.IDGraph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(g.Len()))
	put(uint64(g.NumEdges()))
	put(uint64(g.Depth))
	for _, k := range g.Keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	for _, v := range g.EdgeStart {
		put(uint64(v))
	}
	for _, v := range g.EdgeTo {
		put(uint64(v))
	}
	for _, l := range g.EdgeAction {
		h.Write([]byte(g.Label(l)))
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// CertifyCheckpoint is the resumable snapshot of an interrupted Search:
// the root cursor, visit and step counters, the DFS stack of the in-flight
// root, and every per-class visited bitset, keyed to the graph and the
// requirement by fingerprint: the graph fingerprint XOR the requirement's
// ID, which leaves a consensus checkpoint's the bare graph fingerprint.
type CertifyCheckpoint struct {
	Fingerprint uint64
	MaxVisits   int
	RootIdx     int
	Visits      int
	Steps       int
	Stack       []gframe
	Visited     map[uint64][]uint64
}

// checkpoint snapshots the certifier at the current cut.
func (c *graphCertifier) checkpoint() *CertifyCheckpoint {
	return &CertifyCheckpoint{
		Fingerprint: graphFingerprint(c.g) ^ c.req.ID(),
		MaxVisits:   c.maxVisits,
		RootIdx:     c.rootIdx,
		Visits:      c.visits,
		Steps:       c.steps,
		Stack:       append([]gframe(nil), c.stack...),
		Visited:     c.visited,
	}
}

// restore loads the snapshot into a fresh certifier.
func (ck *CertifyCheckpoint) restore(c *graphCertifier) {
	c.rootIdx = ck.RootIdx
	c.visits = ck.Visits
	c.steps = ck.Steps
	c.stack = append(c.stack[:0], ck.Stack...)
	c.visited = ck.Visited
}

// Matches reports whether the snapshot belongs to this (graph,
// requirement, maxVisits) call.
func (ck *CertifyCheckpoint) Matches(g *core.IDGraph, req Requirement, maxVisits int) bool {
	return ck.MaxVisits == maxVisits && ck.Fingerprint == graphFingerprint(g)^req.ID()
}

// Sections encodes the snapshot as the resilient.TagCertify section.
// Bitsets are written in sorted class order so the payload is
// deterministic.
func (ck *CertifyCheckpoint) Sections() ([]resilient.Section, error) {
	size := 64 + 12*len(ck.Stack)
	for _, bs := range ck.Visited {
		size += 16 + 8*len(bs)
	}
	enc := resilient.NewEnc(size)
	enc.U64(ck.Fingerprint)
	enc.Int(ck.MaxVisits)
	enc.Int(ck.RootIdx)
	enc.Int(ck.Visits)
	enc.Int(ck.Steps)
	enc.Int(len(ck.Stack))
	for _, f := range ck.Stack {
		enc.U32(f.node)
		enc.U32(uint32(f.via))
		enc.U32(f.next)
	}
	masks := make([]uint64, 0, len(ck.Visited))
	for m := range ck.Visited {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })
	enc.Int(len(masks))
	for _, m := range masks {
		bs := ck.Visited[m]
		enc.U64(m)
		enc.Int(len(bs))
		for _, w := range bs {
			enc.U64(w)
		}
	}
	return []resilient.Section{{Tag: resilient.TagCertify, Data: enc.Bytes()}}, nil
}

// DecodeCertifyCheckpoint parses a resilient.TagCertify section payload.
func DecodeCertifyCheckpoint(data []byte) (*CertifyCheckpoint, error) {
	d := resilient.NewDec(data)
	ck := &CertifyCheckpoint{
		Fingerprint: d.U64(),
		MaxVisits:   d.Int(),
		RootIdx:     d.Int(),
		Visits:      d.Int(),
		Steps:       d.Int(),
	}
	// Each count is bounded by the bytes left: a frame takes 12 bytes, a
	// visited class at least 9 (its mask and its word count), a word 8.
	nStack := d.Count(12)
	for i := 0; i < nStack && d.Err() == nil; i++ {
		ck.Stack = append(ck.Stack, gframe{node: d.U32(), via: int32(d.U32()), next: d.U32()})
	}
	nMasks := d.Count(9)
	ck.Visited = make(map[uint64][]uint64, nMasks)
	for i := 0; i < nMasks && d.Err() == nil; i++ {
		m := d.U64()
		words := make([]uint64, d.Count(8))
		for j := range words {
			words[j] = d.U64()
		}
		ck.Visited[m] = words
	}
	if !d.Done() {
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%w: certify section: %v", resilient.ErrBadCheckpoint, err)
		}
		return nil, fmt.Errorf("%w: certify section has trailing bytes", resilient.ErrBadCheckpoint)
	}
	return ck, nil
}

// FieldCheckpoint is the resumable snapshot of an interrupted field sweep:
// the masks computed so far and the next (deepest unfinished) layer, keyed
// to the graph and the seed by fingerprint: the graph fingerprint XOR the
// seed's id, which leaves a NewFieldCtx checkpoint's the bare graph
// fingerprint. Re-sweeping the interrupted layer is idempotent — on a
// graded graph a layer's masks read only deeper layers — so the cut needs
// no finer granularity than the layer index.
type FieldCheckpoint struct {
	Fingerprint uint64
	NextLayer   int
	Masks       []uint8
}

// Matches reports whether the snapshot belongs to this graph and seed id
// and names one of its layers.
func (ck *FieldCheckpoint) Matches(g *core.IDGraph, id uint64) bool {
	return len(ck.Masks) == g.Len() && ck.NextLayer >= 0 && ck.NextLayer < g.NumLayers() &&
		ck.Fingerprint == graphFingerprint(g)^id
}

// Sections encodes the snapshot as the resilient.TagField section.
func (ck *FieldCheckpoint) Sections() ([]resilient.Section, error) {
	enc := resilient.NewEnc(32 + len(ck.Masks))
	enc.U64(ck.Fingerprint)
	enc.Int(ck.NextLayer)
	enc.Raw(ck.Masks)
	return []resilient.Section{{Tag: resilient.TagField, Data: enc.Bytes()}}, nil
}

// DecodeFieldCheckpoint parses a resilient.TagField section payload.
func DecodeFieldCheckpoint(data []byte) (*FieldCheckpoint, error) {
	d := resilient.NewDec(data)
	ck := &FieldCheckpoint{
		Fingerprint: d.U64(),
		NextLayer:   d.Int(),
		Masks:       d.Raw(),
	}
	if !d.Done() {
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%w: field section: %v", resilient.ErrBadCheckpoint, err)
		}
		return nil, fmt.Errorf("%w: field section has trailing bytes", resilient.ErrBadCheckpoint)
	}
	return ck, nil
}
