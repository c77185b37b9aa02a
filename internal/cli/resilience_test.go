package cli_test

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/resilient"
)

// TestResilienceFlagDefaults: the retry/rotation flags default to "run
// once, single checkpoint file" so unsupervised invocations behave exactly
// as before the supervisor existed.
func TestResilienceFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := cli.RegisterResilience(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Retries != 0 {
		t.Errorf("Retries default = %d, want 0", f.Retries)
	}
	if f.Backoff != 100*time.Millisecond {
		t.Errorf("Backoff default = %v, want 100ms", f.Backoff)
	}
	if f.KeepCheckpoints != 1 {
		t.Errorf("KeepCheckpoints default = %d, want 1", f.KeepCheckpoints)
	}
	if f.Store() != nil {
		t.Error("Store() non-nil without a -checkpoint path")
	}
}

// TestSharedFlagsRejectOutOfRange: parsing the shared resilience and
// observability flags fails, naming the flag, on a negative retry count,
// fewer than one checkpoint generation and a negative duration, instead of
// clamping the value or reading it as "off"; the boundary values parse.
func TestSharedFlagsRejectOutOfRange(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cli.RegisterResilience(fs)
		cli.RegisterObs(fs)
		return fs.Parse(args)
	}
	for _, c := range [][2]string{
		{"-retries", "-2"},
		{"-keep-checkpoints", "0"},
		{"-keep-checkpoints", "-3"},
		{"-deadline", "-5s"},
		{"-backoff", "-1s"},
		{"-progress", "-1s"},
		{"-runtime-sample", "-1s"},
	} {
		if err := parse(c[0], c[1]); err == nil || !strings.Contains(err.Error(), "flag "+c[0]+":") {
			t.Errorf("%s %s: err = %v, want an error naming %s", c[0], c[1], err, c[0])
		}
	}
	if err := parse("-retries", "0", "-keep-checkpoints", "1", "-deadline", "0s", "-backoff", "0s",
		"-progress", "0s", "-runtime-sample", "0s"); err != nil {
		t.Errorf("boundary values: %v", err)
	}
}

// TestResilienceSupervisorWiring: Supervisor() translates the flags —
// retries+1 attempts, the base backoff, and the generation store at the
// checkpoint path — and the wired supervisor retries an exhausted node
// budget, which wraps ErrPartial, from its checkpoint.
func TestResilienceSupervisorWiring(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := cli.RegisterResilience(fs)
	ckpt := filepath.Join(t.TempDir(), "w.ckpt")
	if err := fs.Parse([]string{"-retries", "4", "-backoff", "7ms", "-checkpoint", ckpt, "-keep-checkpoints", "3"}); err != nil {
		t.Fatal(err)
	}
	sup := f.Supervisor()
	if sup.MaxAttempts != 5 {
		t.Errorf("MaxAttempts = %d, want retries+1 = 5", sup.MaxAttempts)
	}
	if sup.BaseBackoff != 7*time.Millisecond {
		t.Errorf("BaseBackoff = %v, want 7ms", sup.BaseBackoff)
	}
	if sup.Store == nil || sup.Store.Path != ckpt || sup.Store.Keep != 3 {
		t.Errorf("Store = %+v, want path %s keep 3", sup.Store, ckpt)
	}
	var slept []time.Duration
	sup.Sleep = func(d time.Duration) { slept = append(slept, d) }
	calls := 0
	stats, err := sup.Run(resilient.Background(), "op", func(a *resilient.Attempt) error {
		calls++
		if a.N == 1 {
			return fmt.Errorf("budget: %w", core.ErrNodeBudget)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || stats.Attempts != 2 || stats.Retries != 1 || len(slept) != 1 {
		t.Errorf("%d calls, stats %+v, %d sleeps; want a second attempt after one backoff", calls, stats, len(slept))
	}
}

// TestFinishRotatesGenerations: consecutive interrupted runs through Finish
// rotate checkpoint generations at the -checkpoint path (keep-last-K), and
// a Start with -resume pointing there loads the newest generation.
func TestFinishRotatesGenerations(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "r.ckpt")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := cli.RegisterResilience(fs)
	if err := fs.Parse([]string{"-checkpoint", ckpt, "-keep-checkpoints", "2"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		snap := []resilient.Section{{Tag: resilient.TagExplore, Data: []byte{byte('a' + i)}}}
		runErr := resilient.WithCheckpoint(fmt.Errorf("stop %d: %w", i, resilient.ErrCanceled), sectionsCk{snap})
		if got := f.Finish(runErr); got == nil {
			t.Fatalf("Finish(%d) returned nil for a failed run", i)
		}
	}
	for gen, want := range map[string]byte{ckpt: 'b', ckpt + ".1": 'a'} {
		sections, err := resilient.LoadFile(gen)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if len(sections) != 1 || sections[0].Data[0] != want {
			t.Errorf("%s holds %q, want %q", gen, sections[0].Data, want)
		}
	}

	// Start with -resume loads the newest generation into the context.
	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	f2 := cli.RegisterResilience(fs2)
	if err := fs2.Parse([]string{"-resume", ckpt}); err != nil {
		t.Fatal(err)
	}
	ctx, stop, err := f2.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if got := ctx.PeekResume(resilient.TagExplore); len(got) != 1 || got[0] != 'b' {
		t.Errorf("resume payload = %q, want %q", got, "b")
	}
}

// TestStartResumeFallsBack: when the newest generation at the -resume path
// is corrupt, Start falls back to the previous one instead of failing; a
// path with nothing loadable is a hard error.
func TestStartResumeFallsBack(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "f.ckpt")
	st := &resilient.Store{Path: ckpt, Keep: 2}
	if err := st.Save([]resilient.Section{{Tag: resilient.TagField, Data: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save([]resilient.Section{{Tag: resilient.TagField, Data: []byte("new")}}); err != nil {
		t.Fatal(err)
	}
	if err := writeGarbage(ckpt); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := cli.RegisterResilience(fs)
	if err := fs.Parse([]string{"-resume", ckpt, "-keep-checkpoints", "2"}); err != nil {
		t.Fatal(err)
	}
	ctx, stop, err := f.Start()
	if err != nil {
		t.Fatalf("Start should fall back past the corrupt newest: %v", err)
	}
	stop()
	if got := ctx.PeekResume(resilient.TagField); string(got) != "old" {
		t.Errorf("resume payload = %q, want the fallback generation", got)
	}

	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	f2 := cli.RegisterResilience(fs2)
	if err := fs2.Parse([]string{"-resume", filepath.Join(dir, "absent.ckpt")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f2.Start(); err == nil {
		t.Fatal("Start succeeded with no checkpoint at the -resume path")
	}
}

// TestExitForcedDistinct: the forced-exit code is pinned — distinct from
// success, the CLIs' error exit (1), and the shell's SIGINT death (130).
func TestExitForcedDistinct(t *testing.T) {
	if cli.ExitForced != 131 {
		t.Fatalf("ExitForced = %d, want 131", cli.ExitForced)
	}
}

// sectionsCk is a minimal Checkpointer over a fixed section list.
type sectionsCk struct{ sections []resilient.Section }

func (c sectionsCk) Sections() ([]resilient.Section, error) { return c.sections, nil }

// writeGarbage corrupts path in place with non-checkpoint bytes.
func writeGarbage(path string) error {
	return os.WriteFile(path, []byte("garbage, not RSCK"), 0o644)
}
