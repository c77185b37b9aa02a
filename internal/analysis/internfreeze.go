package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// InternFreeze enforces the immutability contract of interned state values.
// The shared successor cache (core.SuccessorCache) hands out dense ids for states keyed by their canonical Key() at intern time
// and alias the state values across every analysis that runs over the same
// model; a field write after interning desynchronizes the value from its
// registered key and corrupts every memo table joined on the id. The
// core.State doc comment demands immutability — this analyzer makes the
// demand mechanical: any write to a field of a state type outside that
// type's constructor/clone functions is flagged.
//
// State types are recognized structurally (so fixtures and future model
// packages are covered without registration): a named struct whose method
// set carries the core.State fingerprint Key() string, Local(int) string,
// and FailedAt(int) bool. Constructor/clone functions are those named
// New*/new*/Clone*/clone*.
var InternFreeze = &Analyzer{
	Name:     "internfreeze",
	Suppress: "mutates",
	Doc: "flag writes to fields of interned state types outside their constructor/clone " +
		"functions; aliased mutation corrupts the shared successor caches",
	Run: runInternFreeze,
}

func runInternFreeze(pass *Pass) error {
	memo := make(map[*types.Named]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isConstructorName(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				// Function literals inside constructors were already skipped
				// with their parent; literals inside ordinary functions are
				// walked here and checked like their parent.
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkInternedWrite(pass, memo, lhs)
					}
				case *ast.IncDecStmt:
					checkInternedWrite(pass, memo, n.X)
				}
				return true
			})
		}
	}
	return nil
}

// isConstructorName reports whether the function may legitimately
// initialize state fields.
func isConstructorName(name string) bool {
	for _, prefix := range []string{"new", "New", "clone", "Clone"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// checkInternedWrite flags lhs when it writes (directly or through
// index/star chains) to a field of an interned state type.
func checkInternedWrite(pass *Pass, memo map[*types.Named]bool, lhs ast.Expr) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[e]
			if !ok || sel.Kind() != types.FieldVal {
				return
			}
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if ok && isInternedStateType(named, memo) {
				pass.Reportf(e.Pos(),
					"write to field %s of interned state type %s outside a constructor/clone: interned states are aliased by the shared successor cache and must stay immutable after the cache assigns their id",
					e.Sel.Name, named.Obj().Name())
			}
			return
		default:
			return
		}
	}
}

// isInternedStateType reports whether named carries the core.State method
// fingerprint.
func isInternedStateType(named *types.Named, memo map[*types.Named]bool) bool {
	if v, ok := memo[named]; ok {
		return v
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		memo[named] = false
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	ok := hasMethodSig(ms, "Key", nil, []string{"string"}) &&
		hasMethodSig(ms, "Local", []string{"int"}, []string{"string"}) &&
		hasMethodSig(ms, "FailedAt", []string{"int"}, []string{"bool"})
	memo[named] = ok
	return ok
}

// hasMethodSig reports whether the method set contains name with the given
// basic-typed parameter and result shapes.
func hasMethodSig(ms *types.MethodSet, name string, params, results []string) bool {
	sel := ms.Lookup(nil, name)
	if sel == nil {
		// Unexported lookup above only covers same-package; try a scan for
		// exported names from any package.
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				sel = ms.At(i)
				break
			}
		}
		if sel == nil {
			return false
		}
	}
	sig, ok := sel.Obj().Type().(*types.Signature)
	if !ok {
		return false
	}
	return tupleMatches(sig.Params(), params) && tupleMatches(sig.Results(), results)
}

func tupleMatches(t *types.Tuple, shapes []string) bool {
	if t.Len() != len(shapes) {
		return false
	}
	for i := 0; i < t.Len(); i++ {
		b, ok := t.At(i).Type().(*types.Basic)
		if !ok || b.Name() != shapes[i] {
			return false
		}
	}
	return true
}
