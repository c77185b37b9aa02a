package resilient

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/obs"
)

// Checkpoint file format (RSCK v2): a 4-byte magic, one version byte, then
// a sequence of CRC-guarded length-prefixed sections, each
//
//	[1-byte tag][uint64 LE length][payload][uint32 LE CRC32C]
//
// where the CRC32C (Castagnoli) covers the tag, the length bytes, and the
// payload, so a torn or bit-flipped frame — header or body — is detected
// before a payload ever reaches an engine decoder. Version 2 is the only
// version read or written: version-1 files (no per-section CRC) are
// rejected with ErrBadCheckpoint.
//
// Section payloads are engine-owned (core writes the explore section,
// valence the certify and field sections); the container only frames them,
// so one file can carry a partial graph, the certifier state over it, and
// the valence masks together.
const (
	ckptMagic   = "RSCK"
	ckptVersion = 2
)

// castagnoli is the CRC32C table shared by the writer and the reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section tags. Tag values are part of the on-disk format; never renumber.
const (
	// TagExplore is core's partial-exploration snapshot (CSR graph, intern
	// keys, frontier depth).
	TagExplore byte = 1
	// TagCertify is valence's graph-certifier snapshot (visited bitsets,
	// DFS stack, root cursor).
	TagCertify byte = 2
	// TagField is valence's field-sweep snapshot (masks, next layer).
	TagField byte = 3
)

// Section is one tagged payload of a checkpoint file.
type Section struct {
	Tag  byte
	Data []byte
}

// ErrBadCheckpoint reports a file that is not a checkpoint or has an
// unsupported version.
var ErrBadCheckpoint = errors.New("resilient: not a checkpoint file")

// ErrCorruptCheckpoint reports a checkpoint file that is torn, truncated,
// or bit-rotted: wrong magic, a truncated frame, or a CRC mismatch. It
// wraps ErrBadCheckpoint, so callers with the older, coarser check keep
// working; the Supervisor and the generation Store match it specifically —
// corruption is fail-fast for a retry policy but "fall back to the previous
// generation" for a Store.
var ErrCorruptCheckpoint = fmt.Errorf("%w: corrupt or torn container", ErrBadCheckpoint)

// WriteSections writes a checkpoint (v2, CRC-guarded) containing the given
// sections.
func WriteSections(w io.Writer, sections []Section) error {
	var hdr [5]byte
	copy(hdr[:], ckptMagic)
	hdr[4] = ckptVersion
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var frame [9]byte
	var trailer [4]byte
	for _, s := range sections {
		frame[0] = s.Tag
		binary.LittleEndian.PutUint64(frame[1:], uint64(len(s.Data)))
		if _, err := w.Write(frame[:]); err != nil {
			return err
		}
		if _, err := w.Write(s.Data); err != nil {
			return err
		}
		crc := crc32.Update(0, castagnoli, frame[:])
		crc = crc32.Update(crc, castagnoli, s.Data)
		binary.LittleEndian.PutUint32(trailer[:], crc)
		if _, err := w.Write(trailer[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadSections parses a checkpoint file written by WriteSections, verifying
// every section's CRC. Torn, truncated, or mutated input fails with a
// wrapped ErrCorruptCheckpoint; any version other than 2 fails with
// ErrBadCheckpoint.
func ReadSections(r io.Reader) ([]Section, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 5 || string(data[:4]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic or short file (%d bytes)", ErrCorruptCheckpoint, len(data))
	}
	version := data[4]
	if version != ckptVersion {
		return nil, fmt.Errorf("%w: version %d (supported: %d)", ErrBadCheckpoint, version, ckptVersion)
	}
	var out []Section
	off := 5
	for off < len(data) {
		if off+9 > len(data) {
			return nil, fmt.Errorf("%w: truncated section header at offset %d", ErrCorruptCheckpoint, off)
		}
		frame := data[off : off+9]
		tag := frame[0]
		n := binary.LittleEndian.Uint64(frame[1:])
		off += 9
		if uint64(len(data)-off) < n {
			return nil, fmt.Errorf("%w: section %d body truncated at offset %d", ErrCorruptCheckpoint, tag, off)
		}
		body := data[off : off+int(n)]
		off += int(n)
		if off+4 > len(data) {
			return nil, fmt.Errorf("%w: section %d missing CRC trailer at offset %d", ErrCorruptCheckpoint, tag, off)
		}
		want := binary.LittleEndian.Uint32(data[off:])
		off += 4
		crc := crc32.Update(0, castagnoli, frame)
		crc = crc32.Update(crc, castagnoli, body)
		if crc != want {
			return nil, fmt.Errorf("%w: section %d CRC mismatch (got %08x, want %08x)", ErrCorruptCheckpoint, tag, crc, want)
		}
		out = append(out, Section{Tag: tag, Data: body})
	}
	return out, nil
}

// LoadFile reads and parses the checkpoint file at path. A truncated,
// garbage, or bit-rotted file fails with a wrapped ErrCorruptCheckpoint
// (satisfying errors.Is), never a raw decode error, so callers — and the
// Supervisor's error classifier — can tell corruption from a transient
// fault. To fall back across saved generations instead, use Store.Load.
func LoadFile(path string) ([]Section, error) {
	rec := obs.Active()
	if tr := obs.Trace(); tr != nil {
		defer tr.End(tr.Begin("checkpoint.load", 0))
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sections, err := ReadSections(f)
	if err == nil {
		rec.Add("checkpoint.loads", 1)
	}
	return sections, err
}

// Checkpointer is implemented by the snapshot types an interrupted engine
// attaches to its error; Sections renders the snapshot as checkpoint-file
// sections.
type Checkpointer interface {
	Sections() ([]Section, error)
}

// ckptError decorates an interruption error with the Checkpointer able to
// persist the partial state it reports.
type ckptError struct {
	err error
	ck  Checkpointer
}

func (e *ckptError) Error() string              { return e.err.Error() }
func (e *ckptError) Unwrap() error              { return e.err }
func (e *ckptError) Checkpointer() Checkpointer { return e.ck }

// WithCheckpoint returns err decorated with ck. errors.Is/As still see the
// underlying chain; CheckpointFrom recovers ck.
func WithCheckpoint(err error, ck Checkpointer) error {
	if err == nil || ck == nil {
		return err
	}
	return &ckptError{err: err, ck: ck}
}

// CheckpointFrom returns the innermost Checkpointer attached to err's
// chain, if any — the engine closest to the interruption wins when
// wrappers stack.
func CheckpointFrom(err error) (Checkpointer, bool) {
	var found Checkpointer
	for err != nil {
		if ce, ok := err.(interface{ Checkpointer() Checkpointer }); ok {
			found = ce.Checkpointer()
		}
		err = errors.Unwrap(err)
	}
	return found, found != nil
}

// SaveCheckpoint writes the sections of an error's attached Checkpointer to
// path, atomically (write-temp, fsync, rename). It reports (false, nil)
// when err carries no checkpoint. Callers that want to retain previous
// snapshots use a Store with Keep > 1 instead.
func SaveCheckpoint(path string, err error) (bool, error) {
	return (&Store{Path: path, Keep: 1}).SaveError(err)
}
