package valence

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/resilient"
)

// decodeAllPrefixes requires every strict prefix of data to fail decode
// with ErrBadCheckpoint.
func decodeAllPrefixes(t *testing.T, data []byte, decode func([]byte) error) {
	t.Helper()
	for i := range data {
		if err := decode(data[:i]); !errors.Is(err, resilient.ErrBadCheckpoint) {
			t.Fatalf("prefix of %d of %d bytes: err = %v, want ErrBadCheckpoint", i, len(data), err)
		}
	}
}

// TestCertifyCheckpointRoundTrip: decoding the encoded snapshot returns
// every field unchanged, and every strict prefix of the section is rejected
// with ErrBadCheckpoint. Adjacent fields of one type hold distinct values
// (the four counters and the stack length; each frame's three words; each
// class's mask, word count and words), so a swapped read is visible.
func TestCertifyCheckpointRoundTrip(t *testing.T) {
	ck := &CertifyCheckpoint{
		Fingerprint: 0x0123456789abcdef,
		MaxVisits:   900,
		RootIdx:     3,
		Visits:      77,
		Steps:       412,
		Stack:       []gframe{{node: 5, via: -1, next: 2}, {node: 11, via: 40, next: 7}},
		Visited:     map[uint64][]uint64{0b01: {0xf0, 0x0f}, 0b11: {1<<63 | 9}, 0b10: nil},
	}
	sections, err := ck.Sections()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCertifyCheckpoint(sections[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	want := *ck
	want.Visited = map[uint64][]uint64{0b01: {0xf0, 0x0f}, 0b11: {1<<63 | 9}, 0b10: {}}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("decoded %+v, want %+v", got, &want)
	}
	decodeAllPrefixes(t, sections[0].Data, func(b []byte) error {
		_, err := DecodeCertifyCheckpoint(b)
		return err
	})
}

// TestFieldCheckpointRoundTrip: decoding the encoded snapshot returns every
// field unchanged, and every strict prefix of the section is rejected with
// ErrBadCheckpoint.
func TestFieldCheckpointRoundTrip(t *testing.T) {
	ck := &FieldCheckpoint{Fingerprint: 0xfedcba9876543210, NextLayer: 6, Masks: []uint8{3, 1, 0, 2, 2}}
	sections, err := ck.Sections()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFieldCheckpoint(sections[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatalf("decoded %+v, want %+v", got, ck)
	}
	decodeAllPrefixes(t, sections[0].Data, func(b []byte) error {
		_, err := DecodeFieldCheckpoint(b)
		return err
	})
}

// TestCertifyCheckpointBoundsCounts: a section that claims 1<<22 stack
// frames, visited classes or words in a few bytes is rejected before
// anything is sized from the claim.
func TestCertifyCheckpointBoundsCounts(t *testing.T) {
	for _, tail := range []func(e *resilient.Enc){
		func(e *resilient.Enc) { e.Int(1 << 22) },
		func(e *resilient.Enc) { e.Int(0); e.Int(1 << 22) },
		func(e *resilient.Enc) { e.Int(0); e.Int(1); e.U64(1); e.Int(1 << 22) },
	} {
		e := resilient.NewEnc(0)
		e.U64(7)
		for range 4 {
			e.Int(1)
		}
		tail(e)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeCertifyCheckpoint(e.Bytes())
		runtime.ReadMemStats(&after)
		if !errors.Is(err, resilient.ErrBadCheckpoint) {
			t.Errorf("err = %v, want ErrBadCheckpoint", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Errorf("decoding a %d-byte section allocated %d bytes", len(e.Bytes()), alloc)
		}
	}
}
