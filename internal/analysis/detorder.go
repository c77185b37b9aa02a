package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetOrder enforces the determinism contract of the engine packages: the
// golden experiment outputs, the bit-identical parallel/serial equivalence
// of ExploreIDParallel, and the witness equality of CertifyGraph vs
// Certify all assume that every traversal the engine makes
// is a pure function of the model. Three constructs silently break that:
//
//   - ranging over a map (iteration order is randomized per run),
//   - reading the wall clock (time.Now),
//   - drawing from the unseeded global math/rand source.
//
// A map range is allowed when its result is laundered through an explicit
// sort later in the same function (the collect-keys-then-sort.Strings
// idiom), or when annotated //lint:nondet for the provably order-
// insensitive cases (pure max/sum folds, instrumentation timings).
var DetOrder = &Analyzer{
	Name:     "detorder",
	Suppress: "nondet",
	Doc: "flag nondeterministic iteration and clocks in deterministic engine packages: " +
		"map ranges not fed through an explicit sort, time.Now, and unseeded math/rand",
	Run: runDetOrder,
}

func runDetOrder(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDetOrderFunc(pass, fd.Body)
		}
	}
	return nil
}

func checkDetOrderFunc(pass *Pass, body *ast.BlockStmt) {
	// Sort-call positions inside this function; a map range earlier in the
	// text is considered laundered by them.
	var sortPositions []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPkgCall(pass, call, sortingPackages, nil) {
			sortPositions = append(sortPositions, call.Pos())
		}
		return true
	})
	sortedAfter := func(pos token.Pos) bool {
		for _, sp := range sortPositions {
			if sp > pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			t := pass.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap && !sortedAfter(n.Pos()) {
				pass.Reportf(n.Pos(),
					"range over map %s: iteration order is nondeterministic in a deterministic engine package; collect and sort the keys, or annotate //lint:nondet if the fold is order-insensitive",
					exprString(n.X))
			}
		case *ast.CallExpr:
			if isPkgCall(pass, n, map[string]bool{"time": true}, func(name string) bool { return name == "Now" }) {
				pass.Reportf(n.Pos(),
					"time.Now in a deterministic engine package: wall-clock reads make runs irreproducible; annotate //lint:nondet if this only feeds instrumentation")
			}
			if isPkgCall(pass, n, map[string]bool{"math/rand": true, "math/rand/v2": true},
				func(name string) bool { return !strings.HasPrefix(name, "New") }) {
				pass.Reportf(n.Pos(),
					"unseeded math/rand call in a deterministic engine package: use rand.New(rand.NewSource(seed)) so runs are reproducible")
			}
		}
		return true
	})
}

// sortingPackages are the packages whose calls launder a preceding map
// range: collecting keys and sorting them restores a canonical order.
var sortingPackages = map[string]bool{"sort": true, "slices": true}

// isPkgCall reports whether call invokes a package-level function of one of
// the named packages (matched by import path), optionally filtered by
// function name.
func isPkgCall(pass *Pass, call *ast.CallExpr, pkgs map[string]bool, nameOK func(string) bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.ObjectOf(id).(*types.PkgName)
	if !ok || !pkgs[pn.Imported().Path()] {
		return false
	}
	return nameOK == nil || nameOK(sel.Sel.Name)
}

// exprString renders a short expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	default:
		return "expression"
	}
}
