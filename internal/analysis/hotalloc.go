package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces the zero-alloc contract on the engine's annotated hot
// paths. The steady-state kernels — the AppendKey implementations, the
// valence field's bit-plane span sweep, the k-thick kernel's BFS,
// Histogram.Record — allocate nothing per node or per call, and tests
// bound their allocations, but a test only guards the paths it drives; this analyzer guards the construct level, so an allocation
// introduced on an untested branch (or three helpers down) is caught at
// lint time.
//
// Opt-in: a function is checked when its declaration carries a
// //lint:hotpath marker (doc comment or the line above). Inside one, the
// analyzer flags the constructs the compiler turns into runtime
// allocations:
//
//   - composite literals, make, new;
//   - function literals (closure headers escape) and go statements;
//   - fmt package calls (always allocate through their interface slices);
//   - string <-> []byte conversions, except string(b) as a map index
//     (m[string(b)]) or as an operand of a comparison (string(b) == s),
//     whose copy the compiler elides;
//   - string concatenation;
//   - boxing: passing or converting a non-pointer concrete value to an
//     interface parameter.
//
// Calls are checked transitively: every declared function in every package
// gets an "allocates" fact derived bottom-up over the call graph (with the
// reason chain), so a hotpath function calling a helper that calls
// fmt.Sprintf is reported at the hotpath call site two frames away.
// Sanctioned allocators are exempt wherever they appear: append (hot
// paths append into caller-provided, pre-grown buffers) and the
// allocation-free stdlib kernels (sync/atomic, math, math/bits,
// encoding/binary). Dynamic interface-method callees are trusted — their
// implementations carry their own annotations.
var HotAlloc = &Analyzer{
	Name:     "hotalloc",
	Suppress: "alloc",
	Doc: "flag allocation-inducing constructs inside //lint:hotpath functions, " +
		"transitively through helpers via call-graph facts",
	Run: runHotAlloc,
}

// allocFact marks a function that may allocate, with the first reason
// found (possibly a chain through callees).
type allocFact struct {
	Reason string
}

func runHotAlloc(pass *Pass) error {
	g := BuildCallGraph(pass)

	// Bottom-up: derive the allocates fact for every declared function.
	g.Propagate(func(fn *types.Func, fd *ast.FuncDecl) bool {
		key := ObjKey(fn)
		var have allocFact
		if key == "" || pass.ImportFact(key, &have) {
			return false
		}
		reason := firstAllocReason(pass, fd.Body)
		if reason == "" {
			return false
		}
		pass.ExportFact(key, allocFact{Reason: reason})
		return true
	})

	// Report inside annotated functions only.
	forEachFuncDecl(pass, func(fd *ast.FuncDecl) {
		if !funcHasMarker(pass, fd, "hotpath") {
			return
		}
		forEachAllocSite(pass, fd.Body, func(pos token.Pos, what string) {
			pass.Reportf(pos, "hotpath function %s: %s (//lint:alloc to override)", fd.Name.Name, what)
		})
	})
	return nil
}

// firstAllocReason returns a description of the first allocating construct
// in the body, or "" when it is allocation-free.
func firstAllocReason(pass *Pass, body *ast.BlockStmt) string {
	reason := ""
	forEachAllocSite(pass, body, func(pos token.Pos, what string) {
		if reason == "" {
			reason = what
		}
	})
	return reason
}

// forEachAllocSite walks a body reporting each allocation-inducing
// construct. Function literals are flagged as a construct but not entered
// (the closure header is the allocation; the body runs elsewhere).
func forEachAllocSite(pass *Pass, body *ast.BlockStmt, report func(pos token.Pos, what string)) {
	elided := elidedConversions(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "function literal allocates its closure header")
			return false
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
			return true
		case *ast.CompositeLit:
			report(n.Pos(), "composite literal allocates")
			// Do not also flag nested literals of one value.
			return false
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(pass.TypeOf(n)) {
				report(n.Pos(), "string concatenation allocates")
			}
			return true
		case *ast.CallExpr:
			checkAllocCall(pass, n, elided, report)
			return true
		}
		return true
	})
}

// elidedConversions collects the calls used directly as map indexes or as
// operands of a string comparison: a string(b) conversion there is
// compiled without the copy.
func elidedConversions(pass *Pass, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	elided := make(map[*ast.CallExpr]bool)
	mark := func(e ast.Expr) {
		if c, ok := unparen(e).(*ast.CallExpr); ok {
			elided[c] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if t := pass.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					mark(n.Index)
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				if isStringType(pass.TypeOf(n.X)) {
					mark(n.X)
					mark(n.Y)
				}
			}
		}
		return true
	})
	return elided
}

// checkAllocCall classifies one call expression inside a hot path.
func checkAllocCall(pass *Pass, call *ast.CallExpr, elided map[*ast.CallExpr]bool, report func(pos token.Pos, what string)) {
	// Conversions first: string(b), []byte(s).
	if conv, what := allocConversion(pass, call); conv {
		if !elided[call] {
			report(call.Pos(), what)
		}
		return
	}
	// Builtins: make/new allocate, append and the rest do not (hot paths
	// append into pre-grown buffers; growth is the caller's amortized cost).
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "make" || id.Name == "new" {
				report(call.Pos(), "call of "+id.Name+" allocates")
			}
			return
		}
	}
	callee := CalleeOf(pass, call)
	if callee != nil && callee.Pkg() != nil {
		path := callee.Pkg().Path()
		switch {
		case path == "fmt":
			report(call.Pos(), "calls fmt."+callee.Name()+" (allocates)")
			return
		case allocExemptPkg(path):
			return
		}
		var f allocFact
		if key := ObjKey(callee); key != "" && pass.ImportFact(key, &f) {
			report(call.Pos(), "calls "+callee.Name()+", which allocates: "+f.Reason)
			return
		}
	}
	// Boxing: a non-pointer concrete argument passed as an interface
	// parameter is heap-boxed at the call site.
	if sig, ok := typeAsSignature(pass.TypeOf(call.Fun)); ok {
		checkBoxingArgs(pass, call, sig, report)
	}
}

// allocConversion matches string<->[]byte conversions, which allocate
// outside the forms elidedConversions collects.
func allocConversion(pass *Pass, call *ast.CallExpr) (bool, string) {
	if len(call.Args) != 1 {
		return false, ""
	}
	// The callee must denote a type, not a function.
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false, ""
	}
	to := tv.Type
	from := pass.TypeOf(call.Args[0])
	if from == nil {
		return false, ""
	}
	switch {
	case isStringType(to) && isByteSlice(from):
		return true, "[]byte -> string conversion allocates (map indexes m[string(b)] and comparisons are exempt)"
	case isByteSlice(to) && isStringType(from):
		return true, "string -> []byte conversion allocates"
	}
	return false, ""
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// allocExemptPkg reports whether callees from the package are sanctioned
// inside hot paths.
func allocExemptPkg(path string) bool {
	switch path {
	case "sync/atomic", "math", "math/bits", "encoding/binary":
		return true
	}
	return false
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

// checkBoxingArgs flags non-pointer concrete values passed to interface
// parameters. Pointers, interfaces, nil, and untyped constants assignable
// without boxing cost... do not allocate; everything else is copied to the
// heap to get an interface header.
func checkBoxingArgs(pass *Pass, call *ast.CallExpr, sig *types.Signature, report func(pos token.Pos, what string)) {
	if call.Ellipsis != token.NoPos {
		return // conservatively skip explicit slice-spread calls
	}
	// Only the fixed parameters are checked: a variadic tail allocates its
	// backing slice regardless of boxing, but fmt is already flagged
	// wholesale and the engine's hot paths have no variadic helpers.
	fixed := sig.Params().Len()
	if sig.Variadic() {
		fixed--
	}
	for i, arg := range call.Args {
		if i >= fixed {
			break
		}
		param := sig.Params().At(i)
		if _, isIface := param.Type().Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Interface, *types.Signature, *types.Map, *types.Chan:
			continue // pointer-shaped: the interface header reuses the word
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "passing "+at.String()+" to an interface parameter boxes it (allocates)")
	}
}
