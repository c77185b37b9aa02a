package proto

import (
	"reflect"
	"testing"
)

// FuzzSplit: Split never panics, agrees with the reference decoder on every
// input (result and error), and, where it succeeds, Join(Split(s))
// round-trips back to a canonical encoding of the same fields.
func FuzzSplit(f *testing.F) {
	f.Add("")
	f.Add("3:abc")
	f.Add("0:")
	f.Add("3:ab")         // truncated
	f.Add("x:abc")        // bad prefix
	f.Add("1:a2:bc3:def") // multi-field
	f.Add("10:short")     // length overrun
	f.Add(":::")          // pathological
	f.Add("+1:a-0:")      // signed prefixes
	f.Fuzz(func(t *testing.T, s string) {
		fields, err := Split(s)
		want, wantErr := refSplit(s)
		if !sameResult(fields, err, want, wantErr) {
			t.Fatalf("Split(%q) = %q, %v; reference %q, %v", s, fields, err, want, wantErr)
		}
		if err != nil {
			return
		}
		enc := Join(fields...)
		if ref := refJoin(fields...); enc != ref {
			t.Fatalf("Join(%q) = %q, reference %q", fields, enc, ref)
		}
		again, err := Split(enc)
		if err != nil {
			t.Fatalf("re-split of canonical encoding failed: %v", err)
		}
		if len(fields) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(fields, again) {
			t.Fatalf("round trip changed fields: %q -> %q", fields, again)
		}
	})
}

// FuzzDecodeIntSet: DecodeIntSet never panics and agrees with the
// reference decoder on every input (result and error); successful decodes
// re-encode, identically to the reference encoder, to a stable canonical
// form.
func FuzzDecodeIntSet(f *testing.F) {
	f.Add("")
	f.Add("1,2,3")
	f.Add("-5,0,7")
	f.Add("not,numbers")
	f.Add("1,,2")
	f.Add("3,1,3,-0,+2")
	f.Fuzz(func(t *testing.T, s string) {
		xs, err := DecodeIntSet(s)
		want, wantErr := refSplitInts(s)
		if !sameResult(xs, err, want, wantErr) {
			t.Fatalf("DecodeIntSet(%q) = %v, %v; reference %v, %v", s, xs, err, want, wantErr)
		}
		if err != nil {
			return
		}
		if got, ref := JoinInts(xs...), refJoinInts(xs...); got != ref {
			t.Fatalf("JoinInts(%v) = %q, reference %q", xs, got, ref)
		}
		enc := EncodeIntSet(xs)
		if ref := refEncodeIntSet(xs); enc != ref {
			t.Fatalf("EncodeIntSet(%v) = %q, reference %q", xs, enc, ref)
		}
		again, err := DecodeIntSet(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if EncodeIntSet(again) != enc {
			t.Fatalf("canonical form unstable: %q vs %q", enc, EncodeIntSet(again))
		}
	})
}
