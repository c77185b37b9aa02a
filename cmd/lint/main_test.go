package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the lint binary once per test into a temp dir.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building lint: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestLintExitsZeroOnRepo pins the suite's clean bill of health: every true
// finding in the tree has been fixed or carries an auditable //lint:
// annotation, so the standalone checker must exit 0 over ./...
func TestLintExitsZeroOnRepo(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = repoRoot(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("lint ./... reported findings on a clean tree: %v\n%s", err, out)
	}
}

// TestLintExitsNonzeroOnViolation rebuilds the acceptance scenario: a map
// range deliberately introduced into an internal/valence/field.go must make
// the checker exit nonzero with a detorder diagnostic.
func TestLintExitsNonzeroOnViolation(t *testing.T) {
	bin := buildLint(t)
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module synthetic\n\ngo 1.22\n",
		"internal/valence/field.go": `package valence

// Sum folds a map without sorting: the planted detorder violation.
func Sum(weights map[string]int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	return total
}
`,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("lint on planted violation: err = %v (want nonzero exit)\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("lint exit code = %d, want 1\n%s", code, out)
	}
	text := string(out)
	if !strings.Contains(text, "[detorder]") || !strings.Contains(text, "range over map") {
		t.Fatalf("lint output missing detorder diagnostic:\n%s", text)
	}
}

// TestLintVersionHandshake checks the -V=full half of the go vet -vettool
// protocol: one line ending in a buildID field.
func TestLintVersionHandshake(t *testing.T) {
	bin := buildLint(t)
	out, err := exec.Command(bin, "-V=full").CombinedOutput()
	if err != nil {
		t.Fatalf("lint -V=full: %v\n%s", err, out)
	}
	fields := strings.Fields(strings.TrimSpace(string(out)))
	if len(fields) < 3 || !strings.HasPrefix(fields[len(fields)-1], "buildID=") {
		t.Fatalf("lint -V=full output %q does not satisfy the vettool handshake", out)
	}
	flagsOut, err := exec.Command(bin, "-flags").CombinedOutput()
	if err != nil {
		t.Fatalf("lint -flags: %v\n%s", err, flagsOut)
	}
	if strings.TrimSpace(string(flagsOut)) != "[]" {
		t.Fatalf("lint -flags = %q, want []", flagsOut)
	}
}

// writeTree materializes a file map under a temp dir and returns the dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// violationModule is a synthetic module with exactly one violation per
// dataflow analyzer (ctxpoll, hotalloc), plus a loop whose poll arrives
// through a cross-package fact (chaos.Check) — a false positive there
// means fact propagation broke in the driver under test.
func violationModule(t *testing.T) string {
	t.Helper()
	return writeTree(t, map[string]string{
		"go.mod": "module synthetic\n\ngo 1.22\n",
		"resilient/resilient.go": `package resilient

type Ctx struct{ canceled bool }

func (c *Ctx) Err() error {
	if c != nil && c.canceled {
		return errCanceled
	}
	return nil
}

type ctxErr struct{ s string }

func (e *ctxErr) Error() string { return e.s }

var errCanceled = &ctxErr{"canceled"}
`,
		"chaos/chaos.go": `package chaos

import "synthetic/resilient"

func Check(ctx *resilient.Ctx, point string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_ = point
	return nil
}
`,
		"internal/valence/field.go": `package valence

import (
	"synthetic/chaos"
	"synthetic/resilient"
)

func work(i int) int { return i * 2 }

// BadLoop never polls: the ctxpoll violation.
func BadLoop(ctx *resilient.Ctx, items []int) int {
	total := 0
	for _, it := range items {
		total += work(it)
	}
	return total
}

// GoodLoop polls through chaos.Check; reporting it means cross-package
// fact propagation broke.
func GoodLoop(ctx *resilient.Ctx, items []int) error {
	for _, it := range items {
		if err := chaos.Check(ctx, "layer"); err != nil {
			return err
		}
		work(it)
	}
	return nil
}
`,
		"hot/hot.go": `package hot

// Fill is marked hot but allocates: the hotalloc violation.
//lint:hotpath
func Fill(n int) []byte {
	return make([]byte, n)
}
`,
	})
}

// TestLintExitCodePerNewAnalyzer plants one violation per dataflow
// analyzer in a synthetic module and asserts the standalone checker exits
// 1 naming both — and that the loop polling through a cross-package helper
// is NOT among the findings.
func TestLintExitCodePerNewAnalyzer(t *testing.T) {
	bin := buildLint(t)
	dir := violationModule(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("lint on planted violations: err = %v (want exit 1)\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("lint exit code = %d, want 1\n%s", code, out)
	}
	text := string(out)
	for _, tag := range []string{"[ctxpoll]", "[hotalloc]"} {
		if !strings.Contains(text, tag) {
			t.Errorf("lint output missing %s diagnostic:\n%s", tag, text)
		}
	}
	if strings.Contains(text, "GoodLoop") || strings.Count(text, "[ctxpoll]") != 1 {
		t.Errorf("cross-package polls fact did not propagate (GoodLoop flagged?):\n%s", text)
	}
}

// TestLintVettoolPerNewAnalyzer drives the same module through the go vet
// unitchecker protocol: both dataflow analyzers must report, and the
// chaos.Check polls fact must cross packages via the .vetx files.
func TestLintVettoolPerNewAnalyzer(t *testing.T) {
	bin := buildLint(t)
	dir := violationModule(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool on planted violations succeeded, want failure\n%s", out)
	}
	text := string(out)
	for _, tag := range []string{"[ctxpoll]", "[hotalloc]"} {
		if !strings.Contains(text, tag) {
			t.Errorf("go vet output missing %s diagnostic:\n%s", tag, text)
		}
	}
	if strings.Count(text, "[ctxpoll]") != 1 {
		t.Errorf("cross-package polls fact did not cross the vetx boundary:\n%s", text)
	}
}

// TestLintHotpathStdlibCallClean: a //lint:hotpath function that calls
// bytes.Equal lints clean under both drivers. Both treat the standard
// library intrinsically; a vettool driver that analyzed the bytes unit
// from source would flag its []byte -> string conversions through the
// call.
func TestLintHotpathStdlibCallClean(t *testing.T) {
	bin := buildLint(t)
	dir := writeTree(t, map[string]string{
		"go.mod": "module synthetic\n\ngo 1.22\n",
		"hot/hot.go": `package hot

import "bytes"

// Same compares two keys without allocating.
//lint:hotpath
func Same(a, b []byte) bool {
	return bytes.Equal(a, b)
}
`,
	})
	for _, argv := range [][]string{{bin, "./..."}, {"go", "vet", "-vettool=" + bin, "./..."}} {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("%s: %v\n%s", strings.Join(argv, " "), err, out)
		}
	}
}

// TestLintJSONRoundTrip checks -json output: every diagnostic from the
// synthetic module decodes with file/line/analyzer/message populated,
// suppressed findings are included and marked, and the document re-encodes
// losslessly.
func TestLintJSONRoundTrip(t *testing.T) {
	bin := buildLint(t)
	dir := violationModule(t)
	suppressed := filepath.Join(dir, "hot", "suppressed.go")
	if err := os.WriteFile(suppressed, []byte(`package hot

//lint:hotpath
func FillQuiet(n int) []byte {
	return make([]byte, n) //lint:alloc exercised by the json test
}
`), 0o666); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("lint -json exit = %v, want 1\n%s", err, out)
	}
	type diag struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Col        int    `json:"col"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
	}
	var diags []diag
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out)
	}
	if len(diags) < 3 {
		t.Fatalf("got %d diagnostics, want >= 3 (2 active + 1 suppressed)\n%s", len(diags), out)
	}
	analyzers := make(map[string]bool)
	foundSuppressed := false
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		analyzers[d.Analyzer] = true
		if d.Suppressed && strings.HasSuffix(d.File, "suppressed.go") {
			foundSuppressed = true
		}
	}
	for _, want := range []string{"ctxpoll", "hotalloc"} {
		if !analyzers[want] {
			t.Errorf("-json output missing analyzer %q", want)
		}
	}
	if !foundSuppressed {
		t.Errorf("-json output does not mark the suppressed finding")
	}
	redone, err := json.Marshal(diags)
	if err != nil {
		t.Fatal(err)
	}
	var again []diag
	if err := json.Unmarshal(redone, &again); err != nil {
		t.Fatal(err)
	}
	if len(again) != len(diags) {
		t.Fatalf("round trip changed diagnostic count: %d != %d", len(again), len(diags))
	}
}

// TestLintStaleAudit: every run audits the escape hatches. A tree whose
// one hatch suppresses a finding lints clean; a planted stale
// //lint:nondet, and a planted //lint:atomic (a hatch of no analyzer),
// each make the run exit 1 with a [hatch] finding, in the text and in the
// -json output.
func TestLintStaleAudit(t *testing.T) {
	bin := buildLint(t)
	dir := writeTree(t, map[string]string{
		"go.mod": "module synthetic\n\ngo 1.22\n",
		"internal/valence/field.go": `package valence

// Sum folds a map whose order does not matter: a live suppression.
func Sum(weights map[string]int) int {
	total := 0
	for _, w := range weights { //lint:nondet addition commutes
		total += w
	}
	return total
}
`,
	})
	lint := func(args ...string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, append(args, "./...")...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if ee, ok := err.(*exec.ExitError); ok {
			return string(out), ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return string(out), 0
	}
	if out, code := lint(); code != 0 {
		t.Fatalf("live suppression: exit %d, want 0\n%s", code, out)
	}
	for _, c := range []struct{ name, comment, want string }{
		{"stale", "//lint:nondet nothing to suppress here", "stale //lint:nondet suppresses nothing"},
		{"unknown", "//lint:atomic left behind by a deleted analyzer", "//lint:atomic names no analyzer's hatch"},
	} {
		t.Run(c.name, func(t *testing.T) {
			planted := filepath.Join(dir, "internal", "valence", "planted.go")
			body := "package valence\n\nfunc Twice(x int) int {\n\t" + c.comment + "\n\treturn 2 * x\n}\n"
			if err := os.WriteFile(planted, []byte(body), 0o666); err != nil {
				t.Fatal(err)
			}
			defer os.Remove(planted)
			out, code := lint()
			if code != 1 || !strings.Contains(out, "planted.go:4:") || !strings.Contains(out, "[hatch] "+c.want) {
				t.Errorf("text run: exit %d, want 1 with a [hatch] finding %q at planted.go:4\n%s", code, c.want, out)
			}
			if strings.Contains(out, "field.go") {
				t.Errorf("the live suppression was flagged:\n%s", out)
			}
			out, code = lint("-json")
			var diags []struct {
				File       string `json:"file"`
				Analyzer   string `json:"analyzer"`
				Message    string `json:"message"`
				Suppressed bool   `json:"suppressed"`
			}
			if err := json.Unmarshal([]byte(out), &diags); err != nil {
				t.Fatalf("decoding -json output: %v\n%s", err, out)
			}
			var active []string
			for _, d := range diags {
				if !d.Suppressed {
					active = append(active, d.Analyzer+": "+filepath.Base(d.File)+": "+d.Message)
				}
			}
			if code != 1 || len(active) != 1 || !strings.HasPrefix(active[0], "hatch: planted.go: ") || !strings.Contains(active[0], c.want) {
				t.Errorf("-json run: exit %d, active findings %q; want exit 1 and one hatch finding %q", code, active, c.want)
			}
		})
	}
}
