package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicField enforces access-mode consistency for atomically owned
// fields: a struct field whose address is handed to sync/atomic anywhere
// is owned by the atomic protocol everywhere, and a plain read or write of
// it is a data race — one -race only catches when a test actually
// interleaves the two accesses. This is the static complement the obs
// layer's counters rely on: Histogram.counts and the journal drop counters
// are correct only because no path touches them non-atomically.
//
// Mechanically: the analyzer collects every field f such that &x.f (or
// &x.f[i]) appears as an argument to a sync/atomic function, exports a
// fact per collected field (keyed by the owning named type, so a package
// doing plain accesses to an imported type's atomic field is flagged too),
// then reports every other plain selector use of those fields. Exempt
// uses: the atomic call arguments themselves, len/cap (capacity is a
// property of the type, not the values), and `for i := range x.f` loops
// that bind no element value (they read the array's length only). Fields
// of the typed atomic wrappers (atomic.Int64 etc.) need no analysis —
// their plain methods are the atomic protocol.
var AtomicField = &Analyzer{
	Name:     "atomicfield",
	Suppress: "atomic",
	Doc: "flag plain reads/writes of struct fields that are accessed through sync/atomic " +
		"elsewhere in the package (or in a dependency, via facts)",
	Run: runAtomicField,
}

// atomicOwnedFact marks a field as owned by the atomic protocol.
type atomicOwnedFact struct{}

func runAtomicField(pass *Pass) error {
	owned := make(map[*types.Var]bool)    // field objects seen under sync/atomic here
	ownedKeys := make(map[string]bool)    // their FieldKeys, for export
	sanctioned := make(map[ast.Node]bool) // selector nodes inside atomic args / len / cap / range-len
	for _, file := range pass.Files {
		collectAtomicOwned(pass, file, owned, ownedKeys, sanctioned)
	}
	for key := range ownedKeys {
		pass.ExportFact(key, atomicOwnedFact{})
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			f, ok := pass.ObjectOf(sel.Sel).(*types.Var)
			if !ok || !f.IsField() {
				return true
			}
			if !owned[f] {
				var fact atomicOwnedFact
				if key := FieldKey(pass.TypeOf(sel.X), sel.Sel.Name); key == "" || !pass.ImportFact(key, &fact) {
					return true
				}
			}
			pass.Reportf(sel.Pos(),
				"plain access of %s, which is accessed with sync/atomic elsewhere: use the atomic protocol on every path (//lint:atomic to override)",
				sel.Sel.Name)
			return true
		})
	}
	return nil
}

// collectAtomicOwned finds sync/atomic call sites, records the fields
// whose addresses they take (both as objects for local matching and as
// FieldKeys for fact export), and sanctions the exempt selector nodes.
func collectAtomicOwned(pass *Pass, file *ast.File, owned map[*types.Var]bool, ownedKeys map[string]bool, sanctioned map[ast.Node]bool) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := unparen(n.Fun).(*ast.Ident); ok {
				if b, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB && (b.Name() == "len" || b.Name() == "cap") {
					sanctionSelectors(n.Args, sanctioned)
					return true
				}
			}
			callee := CalleeOf(pass, n)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range n.Args {
				ue, ok := unparen(arg).(*ast.UnaryExpr)
				if !ok || ue.Op.String() != "&" {
					continue
				}
				sanctionSelectors([]ast.Expr{ue}, sanctioned)
				if sel, f := addressedField(pass, ue.X); f != nil {
					owned[f] = true
					if key := FieldKey(pass.TypeOf(sel.X), sel.Sel.Name); key != "" {
						ownedKeys[key] = true
					}
				}
			}
		case *ast.RangeStmt:
			// `for i := range x.f` reads only the length.
			if n.Value == nil {
				if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok {
					sanctioned[sel] = true
				}
			}
		}
		return true
	})
}

// sanctionSelectors marks every selector in the expressions as exempt.
func sanctionSelectors(exprs []ast.Expr, sanctioned map[ast.Node]bool) {
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				sanctioned[sel] = true
			}
			return true
		})
	}
}

// addressedField resolves &x.f or &x.f[i] to the field object f.
func addressedField(pass *Pass, e ast.Expr) (*ast.SelectorExpr, *types.Var) {
	e = unparen(e)
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = unparen(idx.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	if f, ok := pass.ObjectOf(sel.Sel).(*types.Var); ok && f.IsField() {
		return sel, f
	}
	return nil, nil
}
