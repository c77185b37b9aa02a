package resilient_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/resilient"
)

func testSections() []resilient.Section {
	return []resilient.Section{
		{Tag: resilient.TagExplore, Data: []byte("partial exploration state")},
		{Tag: resilient.TagCertify, Data: []byte{0, 1, 2, 3, 0xff}},
		{Tag: resilient.TagField, Data: []byte{}},
	}
}

func encode(t *testing.T, sections []resilient.Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := resilient.WriteSections(&buf, sections); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadSectionsRejectsV1: a hand-built version-1 container (no
// per-section CRC) fails with ErrBadCheckpoint naming version 1, so no
// section is ever read unchecked.
func TestReadSectionsRejectsV1(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("RSCK")
	buf.WriteByte(1)
	for _, s := range testSections() {
		buf.WriteByte(s.Tag)
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s.Data)))
		buf.Write(n[:])
		buf.Write(s.Data)
	}
	got, err := resilient.ReadSections(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, resilient.ErrBadCheckpoint) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 container: sections %+v, err = %v; want ErrBadCheckpoint naming version 1", got, err)
	}
}

// TestCheckpointMutationDetected: every single-byte mutation of a valid v2
// container — bit flip or increment, at every offset past the version byte —
// is rejected. The header bytes are covered by the magic/version checks
// instead, which may reject with the coarser ErrBadCheckpoint.
func TestCheckpointMutationDetected(t *testing.T) {
	orig := encode(t, testSections())
	for off := 0; off < len(orig); off++ {
		for _, mutate := range []func(byte) byte{
			func(b byte) byte { return b ^ 0x80 },
			func(b byte) byte { return b + 1 },
		} {
			data := bytes.Clone(orig)
			data[off] = mutate(data[off])
			got, err := resilient.ReadSections(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("mutation at offset %d (%#02x -> %#02x) parsed %d sections undetected",
					off, orig[off], data[off], len(got))
			}
			if !errors.Is(err, resilient.ErrBadCheckpoint) {
				t.Fatalf("mutation at offset %d: err = %v, want ErrBadCheckpoint family", off, err)
			}
			if off >= 5 && !errors.Is(err, resilient.ErrCorruptCheckpoint) {
				t.Fatalf("body mutation at offset %d: err = %v, want ErrCorruptCheckpoint", off, err)
			}
		}
	}
}

// TestLoadFileCorruptSentinel: truncated and garbage files at the LoadFile
// boundary satisfy errors.Is(err, ErrCorruptCheckpoint); a missing file
// stays an fs.ErrNotExist, not a corruption report.
func TestLoadFileCorruptSentinel(t *testing.T) {
	dir := t.TempDir()
	valid := encode(t, testSections())
	cases := map[string][]byte{
		"garbage":   []byte("this is not a checkpoint at all"),
		"truncated": valid[:len(valid)/2],
		"empty":     {},
	}
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := resilient.LoadFile(path); !errors.Is(err, resilient.ErrCorruptCheckpoint) {
			t.Errorf("%s: err = %v, want ErrCorruptCheckpoint", name, err)
		}
	}
	if _, err := resilient.LoadFile(filepath.Join(dir, "absent")); !errors.Is(err, fs.ErrNotExist) || errors.Is(err, resilient.ErrCorruptCheckpoint) {
		t.Errorf("missing file: err = %v, want bare fs.ErrNotExist", err)
	}
}

// TestStoreSaveAtomic: a Save never leaves its temp file behind and the
// stored bytes round-trip exactly.
func TestStoreSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	st := &resilient.Store{Path: filepath.Join(dir, "a.ckpt"), Keep: 1}
	if err := st.Save(testSections()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind after Save", e.Name())
		}
	}
	sections, gen, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 0 || len(sections) != 3 || string(sections[0].Data) != "partial exploration state" {
		t.Errorf("Load = gen %d, %d sections", gen, len(sections))
	}
}

// TestStoreKeep1FailedSaveKeepsPrevious: with Keep=1 a Save that fails
// mid-write must leave the previous checkpoint intact at Path — rotation
// must never delete the only copy before its replacement is durable.
func TestStoreKeep1FailedSaveKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	st := &resilient.Store{Path: filepath.Join(dir, "a.ckpt"), Keep: 1}
	if err := st.Save(testSections()); err != nil {
		t.Fatal(err)
	}
	// Block the temp file slot with a directory so the next Save's write
	// fails before anything can be renamed into place.
	if err := os.Mkdir(st.Path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testSections()); err == nil {
		t.Fatal("Save succeeded despite blocked temp file")
	}
	if err := os.Remove(st.Path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	sections, gen, err := st.Load()
	if err != nil {
		t.Fatalf("previous checkpoint lost after failed Save: %v", err)
	}
	if gen != 0 || len(sections) != 3 {
		t.Errorf("Load = gen %d, %d sections; want the original at gen 0", gen, len(sections))
	}
}

// TestStoreRotationKeepsK: with Keep=3, the three newest snapshots survive
// in order (gen 0 newest) and older ones are dropped.
func TestStoreRotationKeepsK(t *testing.T) {
	dir := t.TempDir()
	st := &resilient.Store{Path: filepath.Join(dir, "r.ckpt"), Keep: 3}
	for i := 0; i < 5; i++ {
		snap := []resilient.Section{{Tag: resilient.TagExplore, Data: []byte{byte('a' + i)}}}
		if err := st.Save(snap); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	// Saves wrote a..e; generations should now hold e, d, c.
	for gen, want := range map[int]byte{0: 'e', 1: 'd', 2: 'c'} {
		path := st.Path
		if gen > 0 {
			path = st.Path + "." + string(rune('0'+gen))
		}
		sections, err := resilient.LoadFile(path)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		if len(sections) != 1 || sections[0].Data[0] != want {
			t.Errorf("generation %d holds %q, want %q", gen, sections[0].Data, want)
		}
	}
	if _, err := os.Stat(st.Path + ".3"); !errors.Is(err, fs.ErrNotExist) {
		t.Error("generation 3 should have been dropped (Keep=3)")
	}
}

// TestStoreLoadFallsBackPastCorruption: when generation 0 is torn or
// bit-rotted, Load skips it and returns the intact generation 1.
func TestStoreLoadFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	st := &resilient.Store{Path: filepath.Join(dir, "f.ckpt"), Keep: 2}
	old := []resilient.Section{{Tag: resilient.TagField, Data: []byte("older but intact")}}
	if err := st.Save(old); err != nil {
		t.Fatal(err)
	}
	if err := st.Save([]resilient.Section{{Tag: resilient.TagField, Data: []byte("newest")}}); err != nil {
		t.Fatal(err)
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"torn":    func(b []byte) []byte { return b[:len(b)/2] },
		"bit rot": func(b []byte) []byte { b[len(b)-6] ^= 0x40; return b },
	} {
		data, err := os.ReadFile(st.Path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.Path, mangle(bytes.Clone(data)), 0o644); err != nil {
			t.Fatal(err)
		}
		sections, gen, lerr := st.Load()
		if lerr != nil {
			t.Fatalf("%s: Load: %v", name, lerr)
		}
		if gen != 1 || string(sections[0].Data) != "older but intact" {
			t.Errorf("%s: Load = gen %d %q, want gen 1 fallback", name, gen, sections[0].Data)
		}
		// Restore the intact newest for the next case.
		if err := os.WriteFile(st.Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreLoadToleratesOneHole: a crash between Save's renames leaves
// exactly one missing slot; Load must scan past a single hole to the next
// generation, but stop after two consecutive misses.
func TestStoreLoadToleratesOneHole(t *testing.T) {
	dir := t.TempDir()
	st := &resilient.Store{Path: filepath.Join(dir, "h.ckpt"), Keep: 3}
	for i := 0; i < 3; i++ {
		if err := st.Save([]resilient.Section{{Tag: resilient.TagExplore, Data: []byte{byte('a' + i)}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate SIGKILL after rotation, before the tmp→gen0 rename: gen 0
	// is missing, gen 1 holds the most recent completed snapshot ("b",
	// since "c" was the write the crash interrupted).
	if err := os.Remove(st.Path); err != nil {
		t.Fatal(err)
	}
	sections, gen, err := st.Load()
	if err != nil {
		t.Fatalf("Load with one hole: %v", err)
	}
	if gen != 1 || sections[0].Data[0] != 'b' {
		t.Errorf("Load = gen %d %q, want gen 1 %q", gen, sections[0].Data, "b")
	}
	// Two consecutive holes end the scan even with an intact file beyond.
	if err := os.Remove(st.Path + ".1"); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(st.Path+".2", st.Path+".3"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Load past two holes = %v, want fs.ErrNotExist", err)
	}
}

// TestStoreLoadAllCorrupt: with every generation corrupt the error reports
// corruption (not absence), so callers know a checkpoint existed.
func TestStoreLoadAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	st := &resilient.Store{Path: filepath.Join(dir, "c.ckpt"), Keep: 2}
	if err := st.Save(testSections()); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(testSections()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{st.Path, st.Path + ".1"} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := st.Load()
	if !errors.Is(err, resilient.ErrCorruptCheckpoint) {
		t.Errorf("Load over corrupt chain = %v, want ErrCorruptCheckpoint", err)
	}
	if errors.Is(err, fs.ErrNotExist) {
		t.Error("corrupt chain misreported as absent")
	}
}

// TestStoreLoadEmpty: a store with nothing on disk wraps fs.ErrNotExist.
func TestStoreLoadEmpty(t *testing.T) {
	st := &resilient.Store{Path: filepath.Join(t.TempDir(), "nope.ckpt")}
	if _, _, err := st.Load(); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("empty store Load = %v, want fs.ErrNotExist", err)
	}
}

// TestWriteSectionsCRCMatchesReference: the trailer is a plain CRC32C over
// tag+len+payload — pin it against an independent computation so the
// on-disk format can't silently drift.
func TestWriteSectionsCRCMatchesReference(t *testing.T) {
	sec := resilient.Section{Tag: resilient.TagCertify, Data: []byte("pinned")}
	data := encode(t, []resilient.Section{sec})
	table := crc32.MakeTable(crc32.Castagnoli)
	var frame [9]byte
	frame[0] = sec.Tag
	binary.LittleEndian.PutUint64(frame[1:], uint64(len(sec.Data)))
	want := crc32.Update(crc32.Update(0, table, frame[:]), table, sec.Data)
	got := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got != want {
		t.Fatalf("trailer CRC = %08x, want %08x", got, want)
	}
}

// FuzzDecodeCheckpoint: ReadSections must never panic on arbitrary bytes,
// any rejection must satisfy the ErrBadCheckpoint family, and anything
// accepted must re-encode and re-parse to the same sections.
func FuzzDecodeCheckpoint(f *testing.F) {
	var valid bytes.Buffer
	if err := resilient.WriteSections(&valid, testSections()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("RSCK\x01\x01\x03\x00\x00\x00\x00\x00\x00\x00abc"))
	f.Add([]byte("RSCK\x02"))
	f.Add([]byte("RSCK"))
	f.Add([]byte{})
	f.Add([]byte("garbage input"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sections, err := resilient.ReadSections(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, resilient.ErrBadCheckpoint) {
				t.Fatalf("decode error outside the checkpoint family: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if werr := resilient.WriteSections(&buf, sections); werr != nil {
			t.Fatalf("re-encode of accepted input: %v", werr)
		}
		again, rerr := resilient.ReadSections(bytes.NewReader(buf.Bytes()))
		if rerr != nil {
			t.Fatalf("re-parse of re-encoded input: %v", rerr)
		}
		if len(again) != len(sections) {
			t.Fatalf("round trip changed section count: %d -> %d", len(sections), len(again))
		}
		for i := range sections {
			if again[i].Tag != sections[i].Tag || !bytes.Equal(again[i].Data, sections[i].Data) {
				t.Fatalf("round trip changed section %d", i)
			}
		}
	})
}
