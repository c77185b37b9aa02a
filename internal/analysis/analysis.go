// Package analysis is the engine-invariant analyzer suite: a small,
// dependency-free reimplementation of the go/analysis vocabulary (Analyzer,
// Pass, Diagnostic) plus six custom analyzers that mechanically enforce the
// invariants the engine's correctness rests on but Go's type system cannot
// express:
//
//   - detorder: no nondeterministic iteration or clocks inside the
//     deterministic engine packages (bit-for-bit golden outputs depend on
//     map-free traversal order).
//   - internfreeze: interned state values are immutable outside their
//     constructors (aliased mutation would corrupt the shared successor
//     caches).
//   - senterr: sentinel errors are matched with errors.Is, never ==
//     (budget errors arrive wrapped with context).
//   - parshard: worker goroutines do not fire-and-forget sends on
//     unbuffered channels, and per-shard locks never nest.
//
// Two more run on a shared dataflow platform (an intraprocedural CFG in
// cfg.go, a package-level call graph in callgraph.go, and cross-package
// facts in facts.go):
//
//   - ctxpoll: top-level loops in functions that take a *resilient.Ctx
//     inside the deterministic engine packages must poll cancellation on
//     every iteration path (directly, via chaos.Check, or through any
//     helper that transitively polls — propagated by facts).
//   - hotalloc: functions annotated //lint:hotpath must not contain
//     allocation-inducing constructs (composite literals, fmt calls,
//     non-map-probe string<->[]byte conversions, closures, interface
//     boxing), transitively through the call graph.
//
// Contracts a type or a test can carry are not analyzers: obs.Histogram's
// counters are typed atomics, so a plain access does not compile; each
// checkpoint codec has a round-trip test that feeds every strict prefix;
// Go 1.22 gives every loop iteration its own variable; the obs recorder
// and tracer return at a nil receiver, so an unguarded call cannot panic;
// the traced chaos suite fails on a span left open on any fault path; and
// the ledger's obs.calls ceilings fail on per-node instrumentation.
//
// The suite runs standalone via cmd/lint (wired into make lint / tier1) and
// through go vet -vettool. Each analyzer has an escape hatch: a comment of
// the form //lint:<token> (e.g. //lint:nondet) on the flagged line or the
// line directly above suppresses the diagnostic, leaving an auditable
// marker in the source. cmd/lint reports a hatch that suppresses nothing,
// and a //lint: comment whose first token names no hatch and no marker.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker, mirroring go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and Makefile output.
	Name string
	// Doc is the one-paragraph description printed by cmd/lint -help.
	Doc string
	// Suppress is the escape-hatch token: a //lint:<Suppress> comment on
	// the reported line or the line above silences the diagnostic.
	Suppress string
	// Run reports diagnostics on the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the pass's FileSet. A finding
// silenced by an escape-hatch comment is still recorded, flagged Suppressed
// and carrying the "file:line" key of the comment that silenced it — the
// -json output reports it and the hatch audit counts the hatch as used.
type Diagnostic struct {
	Pos          token.Pos
	Analyzer     string
	Message      string
	Suppressed   bool
	SuppressedBy string
}

// Pass hands one analyzer one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts is the cross-package fact store shared by the whole driver run;
	// see facts.go. Never nil.
	Facts *FactStore

	diagnostics []Diagnostic
	// suppressed maps "file:line" to the set of escape tokens present there.
	suppressed map[string]map[string]bool
}

// posKey builds the "file:line" key the suppression index and the hatch
// audit agree on.
func posKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// NewPass assembles a pass and indexes the package's //lint: escape-hatch
// comments. A nil facts store is replaced with a fresh one, so fixture
// runs get intra-package fact propagation without wiring a store.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore) *Pass {
	if facts == nil {
		facts = NewFactStore()
	}
	p := &Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		Facts:      facts,
		suppressed: make(map[string]map[string]bool),
	}
	for _, c := range LintComments(fset, files) {
		if len(c.Tokens) == 0 {
			continue
		}
		if p.suppressed[c.Key] == nil {
			p.suppressed[c.Key] = make(map[string]bool)
		}
		p.suppressed[c.Key][c.Tokens[0]] = true
	}
	return p
}

// LintComment is one //lint: comment: its position, its "file:line" key
// (matched against Diagnostic.SuppressedBy by the hatch audit), and the
// whitespace-separated tokens following the prefix. The first token is the
// escape hatch or marker; trailing tokens are free-form rationale.
type LintComment struct {
	Pos    token.Pos
	Key    string
	Tokens []string
}

// LintComments indexes every //lint: comment in the files.
func LintComments(fset *token.FileSet, files []*ast.File) []LintComment {
	var out []LintComment
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "lint:") {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, LintComment{
					Pos:    c.Pos(),
					Key:    posKey(pos.Filename, pos.Line),
					Tokens: strings.Fields(strings.TrimPrefix(text, "lint:")),
				})
			}
		}
	}
	return out
}

// Reportf records a diagnostic. An escape-hatch comment on the reported
// line or the line above marks it Suppressed rather than dropping it, so
// drivers can audit hatch usage.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if p.Analyzer.Suppress != "" {
		position := p.Fset.Position(pos)
		for _, line := range []int{position.Line, position.Line - 1} {
			key := posKey(position.Filename, line)
			if p.suppressed[key][p.Analyzer.Suppress] {
				d.Suppressed = true
				d.SuppressedBy = key
				break
			}
		}
	}
	p.diagnostics = append(p.diagnostics, d)
}

// TypeOf returns the type of e, or nil when the checker recorded none.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// ObjectOf resolves an identifier through Uses then Defs.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.TypesInfo.ObjectOf(id)
}

// RunAnalyzerFacts runs one analyzer over one loaded package against a
// shared fact store and returns all its diagnostics — suppressed ones
// included, flagged — sorted by position. Facts exported by the run remain
// in the store for downstream packages.
func RunAnalyzerFacts(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore) ([]Diagnostic, error) {
	pass := NewPass(a, fset, files, pkg, info, facts)
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sort.Slice(pass.diagnostics, func(i, j int) bool {
		return pass.diagnostics[i].Pos < pass.diagnostics[j].Pos
	})
	return pass.diagnostics, nil
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DetOrder, InternFreeze, SentErr, ParShard,
		CtxPoll, HotAlloc,
	}
}

// MarkerTokens are //lint: tokens that are annotations rather than escape
// hatches — they opt a declaration into a contract instead of silencing a
// diagnostic, so the hatch audit never reports them.
var MarkerTokens = map[string]bool{
	"hotpath": true, // opts a function into hotalloc checking
}

// deterministicSuffixes are the import-path suffixes of the deterministic
// engine packages: exploration and field sweeps there must be bit-for-bit
// reproducible, so detorder and ctxpoll apply to them.
var deterministicSuffixes = []string{
	"internal/core",
	"internal/valence",
	"internal/knowledge",
	"internal/decision",
}

// IsDeterministicEnginePkg reports whether the import path names one of the
// deterministic engine packages (matched by suffix so analysistest fixture
// paths and the real module agree).
func IsDeterministicEnginePkg(path string) bool {
	for _, s := range deterministicSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// Applies reports whether the analyzer checks packages with the given
// import path when driven by cmd/lint. Analyzers themselves are
// scope-free — fixtures run them directly — so the package filter lives
// here, next to the suite definition.
func Applies(a *Analyzer, pkgPath string) bool {
	if a == DetOrder || a == CtxPoll {
		return IsDeterministicEnginePkg(pkgPath)
	}
	return true
}

// FactProducer reports whether the analyzer exports cross-package facts.
// Drivers run fact producers on every module package — even ones where
// Applies says not to report — and discard the diagnostics, so facts about
// helpers defined outside an analyzer's reporting scope still reach the
// packages inside it.
func FactProducer(a *Analyzer) bool {
	return a == CtxPoll || a == HotAlloc
}
