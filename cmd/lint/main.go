// Command lint runs the engine-invariant analyzer suite (internal/analysis)
// over module packages. It has two modes:
//
// Standalone (make lint):
//
//	go run ./cmd/lint ./...
//
// loads packages through `go list -export`, runs every analyzer that
// Applies to each package, prints file:line:col: [analyzer] message lines,
// and exits 1 when any diagnostic is reported. Because `go list -deps`
// emits dependencies before dependents, cross-package analysis facts flow
// through a single in-memory store: fact-producing analyzers run on every
// module package in the dependency closure — even packages outside their
// reporting scope or not matched by the patterns at all — so helper
// properties reach the packages that consume them; diagnostics are only
// reported for packages the patterns name.
//
// A standalone run also audits the escape hatches of those packages: a
// //lint:<token> comment whose first token names an analyzer's hatch but
// suppresses no diagnostic, and one whose first token names no hatch and
// no marker, are each a [hatch] finding.
//
// The -json flag emits the diagnostics as a JSON array (file/line/col/
// analyzer/message/suppressed), suppressed findings included.
//
// Vettool (make vettool): the binary also speaks the cmd/go unitchecker
// protocol, so the same checks run under the build cache:
//
//	go build -o bin/lint ./cmd/lint
//	go vet -vettool=bin/lint ./...
//
// In this mode cmd/go invokes the tool once per compilation unit with a
// JSON config file; diagnostics go to stderr and the exit status is 2.
// Facts ride the protocol's .vetx files: dependency units are analyzed
// with VetxOnly and their exported facts serialized to VetxOutput, which
// cmd/go hands back to dependents as PackageVetx. Test files are only
// checked by senterr (tests may reach into iteration order and timing
// deliberately; sentinel comparisons stay wrong everywhere), and hatches
// are not audited.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	// The unitchecker handshake: cmd/go probes the tool's version and flag
	// set before handing it config files.
	versionFlag := flag.String("V", "", "print version (unitchecker protocol)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON (unitchecker protocol)")
	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON (standalone mode)")
	flag.Usage = usage
	flag.Parse()

	switch {
	case *versionFlag != "":
		printVersion()
	case *flagsFlag:
		// No tool-level flags cross the unitchecker protocol; -json is a
		// standalone convenience.
		fmt.Println("[]")
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg"):
		runUnitchecker(flag.Arg(0))
	default:
		runStandalone(flag.Args(), *jsonFlag)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: lint [-json] [packages]   (standalone, e.g. lint ./...)\n")
	fmt.Fprintf(os.Stderr, "       go vet -vettool=$(which lint) [packages]\n\nanalyzers:\n")
	for _, a := range analysis.All() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nsuppress one finding with a //lint:<token> comment on the flagged line or the line above\n")
}

// printVersion emulates unitchecker's -V=full output; cmd/go folds the
// buildID into its action cache key so vettool results invalidate when the
// lint binary changes.
func printVersion() {
	progname, _ := os.Executable()
	h := sha256.New()
	if f, err := os.Open(progname); err == nil {
		_, _ = io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(progname), string(h.Sum(nil)))
}

// jsonDiag is one diagnostic in -json output.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// runStandalone is the make-lint path: load packages via the go command and
// report to stdout.
func runStandalone(patterns []string, jsonOut bool) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := &analysis.Loader{Dir: "."}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// One fact store for the whole walk: go list -deps returns packages in
	// dependency order, so producers always run before consumers.
	facts := analysis.NewFactStore()
	hatches := make(map[string]bool) // the escape-hatch tokens, one per analyzer
	for _, a := range analysis.All() {
		hatches[a.Suppress] = true
	}

	var all []jsonDiag
	active := 0
	report := func(pos token.Position, analyzer, msg string, suppressed bool) {
		all = append(all, jsonDiag{
			File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Analyzer: analyzer, Message: msg, Suppressed: suppressed,
		})
		if !suppressed {
			active++
			if !jsonOut {
				fmt.Printf("%s: [%s] %s\n", pos, analyzer, msg)
			}
		}
	}
	for _, pkg := range pkgs {
		used := make(map[string]bool) // "key\x00token" pairs that suppressed something
		for _, a := range analysis.All() {
			// A dep-only package (loaded because a pattern depends on it, not
			// matched itself) contributes facts but never diagnostics.
			applies := analysis.Applies(a, pkg.ImportPath) && !pkg.DepOnly
			if !applies && !analysis.FactProducer(a) {
				continue
			}
			diags, err := analysis.RunAnalyzerFacts(a, pkg.Fset, pkg.Files, pkg.Pkg, pkg.Info, facts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, d := range diags {
				if d.Suppressed {
					used[d.SuppressedBy+"\x00"+a.Suppress] = true
				}
				if applies {
					report(pkg.Fset.Position(d.Pos), a.Name, d.Message, d.Suppressed)
				}
			}
		}
		if pkg.DepOnly {
			continue
		}
		for _, c := range analysis.LintComments(pkg.Fset, pkg.Files) {
			tok := ""
			if len(c.Tokens) > 0 {
				tok = c.Tokens[0]
			}
			switch {
			case analysis.MarkerTokens[tok]:
			case !hatches[tok]:
				report(pkg.Fset.Position(c.Pos), "hatch", fmt.Sprintf("//lint:%s names no analyzer's hatch and no marker", tok), false)
			case !used[c.Key+"\x00"+tok]:
				report(pkg.Fset.Position(c.Pos), "hatch", fmt.Sprintf("stale //lint:%s suppresses nothing: delete it", tok), false)
			}
		}
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []jsonDiag{}
		}
		if err := enc.Encode(all); err != nil {
			fatalf("encoding json: %v", err)
		}
	} else if active > 0 {
		fmt.Fprintf(os.Stderr, "lint: %d finding(s)\n", active)
	}
	if active > 0 {
		os.Exit(1)
	}
}

// unitConfig is the subset of cmd/go's vet config JSON the tool consumes.
type unitConfig struct {
	ID          string
	Dir         string
	ImportPath  string
	ModulePath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	PackageVetx map[string]string
	VetxOutput  string
	VetxOnly    bool
}

// runUnitchecker analyzes one compilation unit described by a cfg file, per
// the go vet -vettool contract.
func runUnitchecker(cfgPath string) {
	body, err := os.ReadFile(cfgPath)
	if err != nil {
		fatalf("reading config: %v", err)
	}
	var cfg unitConfig
	if err := json.Unmarshal(body, &cfg); err != nil {
		fatalf("parsing config %s: %v", cfgPath, err)
	}

	// Test variants re-list the non-test files; only report on them from the
	// base unit so findings are not duplicated across units.
	basePath := cfg.ImportPath
	isVariant := false
	if i := strings.Index(basePath, " ["); i >= 0 {
		basePath, isVariant = basePath[:i], true
	}

	// Dependency units are vetted only for their facts. A unit outside
	// every module is the standard library, which the standalone driver
	// does not load either: it gets an empty facts file (analyzers treat
	// the stdlib intrinsically). Every module unit is analyzed from source
	// by the fact-producing analyzers so helper properties reach
	// dependents.
	if cfg.VetxOnly && (cfg.ModulePath == "" || len(cfg.GoFiles) == 0) {
		writeVetx(cfg.VetxOutput, nil)
		return
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fatalf("%v", err)
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := analysis.NewTypesInfo()
	conf := types.Config{Importer: imp}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		fatalf("typecheck %s: %v", cfg.ImportPath, err)
	}

	// Seed the fact store with every dependency's facts. Each .vetx already
	// carries its own dependencies' facts merged in, so direct imports
	// suffice; empty files are stdlib units that produced nothing.
	facts := analysis.NewFactStore()
	for _, vetx := range cfg.PackageVetx {
		data, err := os.ReadFile(vetx)
		if err != nil || len(data) == 0 {
			continue
		}
		if err := facts.Merge(data); err != nil {
			fatalf("merging facts from %s: %v", vetx, err)
		}
	}

	found := 0
	for _, a := range analysis.All() {
		applies := analysis.Applies(a, basePath)
		if cfg.VetxOnly {
			applies = false // facts only; a dependent unit reports
		}
		if !applies && !analysis.FactProducer(a) {
			continue
		}
		diags, err := analysis.RunAnalyzerFacts(a, fset, files, pkg, info, facts)
		if err != nil {
			fatalf("%v", err)
		}
		if !applies {
			continue
		}
		for _, d := range diags {
			if d.Suppressed {
				continue
			}
			pos := fset.Position(d.Pos)
			inTest := strings.HasSuffix(pos.Filename, "_test.go")
			if inTest && a != analysis.SentErr {
				continue
			}
			if !inTest && isVariant {
				continue
			}
			found++
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pos, a.Name, d.Message)
		}
	}

	writeVetx(cfg.VetxOutput, facts)
	if found > 0 {
		os.Exit(2)
	}
}

// writeVetx persists the fact store (or an empty file) at path; cmd/go
// expects the file to exist even when there are no facts.
func writeVetx(path string, facts *analysis.FactStore) {
	if path == "" {
		return
	}
	var data []byte
	if facts != nil && facts.Len() > 0 {
		var err error
		data, err = facts.Encode()
		if err != nil {
			fatalf("encoding facts: %v", err)
		}
	}
	if err := os.WriteFile(path, data, 0o666); err != nil {
		fatalf("writing vetx output: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lint: "+format+"\n", args...)
	os.Exit(1)
}
