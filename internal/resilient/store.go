package resilient

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/obs"
)

// Store manages crash-durable checkpoint generations rooted at a base
// path. Generation 0 (the newest) lives at Path itself, generation 1 at
// Path+".1", and so on up to Keep-1 — the same naming scheme as rotated
// logs, so the resume flag of every CLI keeps pointing at the plain path.
//
// Save is crash-safe at every step: existing generations are rotated by
// rename (oldest first, skipped entirely for Keep=1), then the new
// snapshot is written to a temp file, fsynced, and renamed into place. A
// SIGKILL or write failure at any instant leaves either the new generation
// complete or the previous one intact (at Path+".1" after rotation, at
// Path itself for Keep=1, where the final rename alone replaces it);
// never a half-written file that Load would trust, because Load verifies
// each candidate's per-section CRCs (RSCK v2) and falls back to the next
// older generation when the newer one is torn or corrupt.
type Store struct {
	// Path is the base checkpoint path (generation 0).
	Path string
	// Keep is how many generations to retain; values below 1 act as 1
	// (a single generation, overwritten atomically on each Save).
	Keep int
}

// genPath returns the file path of generation gen (0 = newest).
func (s *Store) genPath(gen int) string {
	if gen <= 0 {
		return s.Path
	}
	return s.Path + "." + strconv.Itoa(gen)
}

// keep returns the effective retention count.
func (s *Store) keep() int {
	if s.Keep < 1 {
		return 1
	}
	return s.Keep
}

// Save persists sections as the new generation 0, rotating existing
// generations back by one and dropping any beyond Keep. The write is
// atomic: temp file in the same directory, fsync, rename.
func (s *Store) Save(sections []Section) error {
	if s.Path == "" {
		return errors.New("resilient: store has no path")
	}
	rec := obs.Active()
	if tr := obs.Trace(); tr != nil {
		defer tr.End(tr.Begin("checkpoint.save", 0))
	}
	k := s.keep()
	if k > 1 {
		// Rotate oldest-first so each rename's target slot is already free.
		// A crash between renames only shifts which slot holds which
		// snapshot; every file on disk stays a complete, CRC-valid
		// container. With Keep=1 there is nothing to rotate: the final
		// rename below atomically replaces the live file, so the previous
		// snapshot stays intact until the new one is durable.
		os.Remove(s.genPath(k - 1))
		for gen := k - 2; gen >= 0; gen-- {
			if err := os.Rename(s.genPath(gen), s.genPath(gen+1)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("resilient: rotating checkpoint generation %d: %w", gen, err)
			}
		}
	}
	tmp := s.Path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	werr := WriteSections(f, sections)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, s.Path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(s.Path))
	if rec != nil {
		rec.Add("checkpoint.saves", 1)
		var bytes int64
		for _, sec := range sections {
			bytes += int64(len(sec.Data))
		}
		rec.Record("checkpoint.save.bytes", bytes)
	}
	return nil
}

// SaveError extracts the Checkpointer attached to err (if any) and Saves
// its sections. It reports (false, nil) when err carries no checkpoint.
func (s *Store) SaveError(err error) (bool, error) {
	ck, ok := CheckpointFrom(err)
	if !ok {
		return false, nil
	}
	sections, serr := ck.Sections()
	if serr != nil {
		return false, serr
	}
	if serr := s.Save(sections); serr != nil {
		return false, serr
	}
	return true, nil
}

// Load returns the sections of the newest generation that parses and
// CRC-verifies, together with its generation number (0 = Path itself).
// A torn or corrupt newer generation is skipped — that is the fallback
// SIGKILL recovery relies on. A single missing slot is tolerated too: a
// crash between Save's renames can leave exactly one hole in the chain
// (e.g. generation 0 already rotated away, its replacement not yet renamed
// into place), so the scan only ends at two consecutive missing files. It
// walks generations regardless of Keep, so a store written with a larger
// retention is still fully readable. With no generation present the error
// wraps fs.ErrNotExist; with only corrupt generations it wraps
// ErrCorruptCheckpoint.
func (s *Store) Load() ([]Section, int, error) {
	if s.Path == "" {
		return nil, 0, errors.New("resilient: store has no path")
	}
	var lastErr error
	misses := 0
	for gen := 0; gen < 1024 && misses < 2; gen++ {
		sections, err := LoadFile(s.genPath(gen))
		if err == nil {
			if gen > 0 {
				if rec := obs.Active(); rec != nil {
					rec.Add("checkpoint.fallbacks", 1)
					rec.Event("checkpoint.fallback", obs.F{Key: "path", Value: s.Path}, obs.F{Key: "generation", Value: gen})
				}
			}
			return sections, gen, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			misses++
			continue
		}
		misses = 0
		lastErr = err
	}
	if lastErr != nil {
		return nil, 0, fmt.Errorf("resilient: no loadable checkpoint generation at %s: %w", s.Path, lastErr)
	}
	return nil, 0, fmt.Errorf("resilient: no checkpoint at %s: %w", s.Path, fs.ErrNotExist)
}

// syncDir best-effort fsyncs a directory so a just-renamed checkpoint
// survives power loss. Errors are ignored: some filesystems reject
// directory fsync and the rename itself is already ordered on the ones
// that matter.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
