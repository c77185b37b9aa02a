package syncmp

import (
	"bytes"
	"testing"
)

// TestDeliverSetKeyNamesTheSet: a set key is the receiver's id followed by
// the inbox's distinct non-zero message ids in increasing order, whatever
// order the senders come in and however many send each message; different
// sets or receivers get different keys; and building one allocates
// nothing once the buffers are grown.
func TestDeliverSetKeyNamesTheSet(t *testing.T) {
	key := func(recv uint32, in ...uint32) []byte {
		return deliverSetKey(nil, recv, in, make([]uint32, len(in)))
	}
	want := deliverKey(nil, 5, []uint32{1, 2, 300})
	for _, in := range [][]uint32{
		{300, 0, 1, 300, 2},
		{2, 1, 0, 0, 300},
		{1, 2, 300, 300, 300},
		{0, 300, 2, 1, 2},
	} {
		if got := key(5, in...); !bytes.Equal(got, want) {
			t.Errorf("inbox %v: key %x, want %x", in, got, want)
		}
	}
	if !bytes.Equal(key(5), key(5, 0, 0, 0)) {
		t.Error("an empty inbox and one of missing messages differ")
	}
	keys := map[string][]uint32{}
	for _, in := range [][]uint32{{}, {1}, {2}, {1, 2}, {1, 300}, {2, 300}, {1, 2, 300}} {
		k := string(key(5, in...))
		if prev, ok := keys[k]; ok {
			t.Errorf("sets %v and %v share key %x", prev, in, k)
		}
		keys[k] = in
	}
	if bytes.Equal(key(5, 1, 2), key(6, 1, 2)) {
		t.Error("two receivers share a key")
	}
	in, set, dst := []uint32{300, 0, 1, 300, 2, 1, 7}, make([]uint32, 7), make([]byte, 0, 64)
	if a := testing.AllocsPerRun(100, func() { dst = deliverSetKey(dst[:0], 9, in, set) }); a != 0 {
		t.Errorf("deliverSetKey allocates %.1f times per call", a)
	}
}
