package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPoll enforces the resilience layer's cancellation contract on the
// deterministic engine packages: a top-level loop in a function that has a
// *resilient.Ctx in scope must poll cancellation on every iteration path.
// Ctx.Err is one atomic load, so the layer/shard loops poll it directly or
// through chaos.Check / the engines' stopPoint helpers; a loop that can
// complete an iteration without any poll turns SIGINT and deadlines into
// unbounded stalls (the pool only notices cancellation when a worker
// returns).
//
// What counts as a poll is computed, not listed: a call to
// (*resilient.Ctx).Err is intrinsically a poll, and any function whose
// every path from entry to exit crosses a poll carries a "polls" fact —
// propagated bottom-up through the package call graph and across package
// boundaries through the fact store, so chaos.Check (which calls ctx.Err
// first) and core's stopPoint (which calls chaos.Check) satisfy the loop
// two helper frames away from the atomic load.
//
// The every-K idiom is sanctioned: an if-statement whose condition is a
// pure expression (`if visits&0xfff == 0`) and whose body polls counts as
// a poll on every path through it, because the gate itself cannot block or
// diverge — the loop still observes cancellation within a bounded number
// of iterations.
//
// Scope: only loops nested directly in the function body (loop depth 0 —
// the layer/frontier loops), and only loops whose body calls at least one
// real function (a pure arithmetic sweep is bounded work per layer and is
// the granularity the contract allows). Function literals are opaque: they
// run on workers with their own polling obligations.
var CtxPoll = &Analyzer{
	Name:     "ctxpoll",
	Suppress: "poll",
	Doc: "flag top-level engine loops that can complete an iteration without polling " +
		"resilient.Ctx cancellation (directly, via chaos.Check, or any helper that " +
		"transitively polls on all paths)",
	Run: runCtxPoll,
}

// pollsFact marks a function every path of which polls cancellation.
type pollsFact struct{}

func runCtxPoll(pass *Pass) error {
	g := BuildCallGraph(pass)

	// Bottom-up fixpoint: derive the polls fact for every declared function,
	// then audit the loops. The fact store already holds the facts of every
	// dependency, so imports resolve transparently.
	g.Propagate(func(fn *types.Func, fd *ast.FuncDecl) bool {
		key := ObjKey(fn)
		var have pollsFact
		if key == "" || pass.ImportFact(key, &have) {
			return false
		}
		if !allPathsPoll(pass, fd.Body) {
			return false
		}
		pass.ExportFact(key, pollsFact{})
		return true
	})

	forEachFuncDecl(pass, func(fd *ast.FuncDecl) {
		if !ctxInScope(pass, fd) {
			return
		}
		loops := topLevelLoops(fd.Body)
		if len(loops) == 0 {
			return
		}
		cfg := BuildCFG(fd.Body)
		sanctioned := sanctionedPollGates(pass, fd.Body)
		q := &PathQuery{Barrier: func(n ast.Node) bool { return nodePolls(pass, n, sanctioned) }}
		for _, stmt := range loops {
			if !loopBodyCalls(pass, loopBody(stmt)) {
				continue
			}
			l := cfg.Loops[stmt]
			if l == nil {
				continue
			}
			if cfg.IterationWithoutBarrier(l, q) {
				pass.Reportf(stmt.Pos(),
					"loop can complete an iteration without polling cancellation: poll ctx.Err() (or chaos.Check) on every iteration path so deadlines and SIGINT are observed per layer (//lint:poll to override)")
			}
		}
	})
	return nil
}

// ctxInScope reports whether the declaration has a *resilient.Ctx
// available: as a parameter, or as a field of its receiver's struct type.
func ctxInScope(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if isResilientCtxPtr(pass.TypeOf(field.Type)) {
				return true
			}
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		rt := pass.TypeOf(fd.Recv.List[0].Type)
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if isResilientCtxPtr(st.Field(i).Type()) {
						return true
					}
				}
			}
		}
	}
	return false
}

// isResilientCtxPtr reports whether t is *Ctx of a resilient package
// (matched by path suffix so fixtures can fake the package).
func isResilientCtxPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Ctx" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "resilient" || strings.HasSuffix(path, "/resilient")
}

// isCtxErrCall reports whether the callee is the intrinsic poll,
// (*resilient.Ctx).Err.
func isCtxErrCall(fn *types.Func) bool {
	if fn.Name() != "Err" || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path != "resilient" && !strings.HasSuffix(path, "/resilient") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isResilientCtxPtr(sig.Recv().Type())
}

// isPollCall reports whether the call polls cancellation: the intrinsic
// Ctx.Err, or any callee carrying the polls fact.
func isPollCall(pass *Pass, call *ast.CallExpr) bool {
	callee := CalleeOf(pass, call)
	if callee == nil {
		return false
	}
	if isCtxErrCall(callee) {
		return true
	}
	var f pollsFact
	return pass.ImportFact(ObjKey(callee), &f)
}

// nodePolls reports whether executing node n necessarily polls: its
// subtree contains a poll call outside any function literal, or n is the
// condition of a sanctioned every-K gate.
func nodePolls(pass *Pass, n ast.Node, sanctioned map[ast.Expr]bool) bool {
	if e, ok := n.(ast.Expr); ok && sanctioned[e] {
		return true
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isPollCall(pass, c) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// sanctionedPollGates collects the conditions of every-K poll gates in the
// body: if-statements with a pure condition whose body contains a poll.
// The condition expression is a CFG node every path through the gate
// crosses, so marking it a barrier sanctions both arms.
func sanctionedPollGates(pass *Pass, body *ast.BlockStmt) map[ast.Expr]bool {
	gates := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Init != nil || !isPureExpr(ifs.Cond) {
			return true
		}
		if nodePolls(pass, ifs.Body, nil) {
			gates[ifs.Cond] = true
		}
		return true
	})
	return gates
}

// allPathsPoll reports whether every path from the body's entry to its
// normal exit crosses a poll (the polls-fact criterion).
func allPathsPoll(pass *Pass, body *ast.BlockStmt) bool {
	// Fast lexical pre-check: a body with no poll call at all cannot
	// qualify, and most functions fall out here without building a CFG.
	if !nodePolls(pass, body, nil) {
		return false
	}
	cfg := BuildCFG(body)
	sanctioned := sanctionedPollGates(pass, body)
	q := &PathQuery{Barrier: func(n ast.Node) bool { return nodePolls(pass, n, sanctioned) }}
	return !cfg.PathExists(cfg.Entry, cfg.Exit, q)
}

// topLevelLoops collects the for/range statements at loop depth 0 of the
// body: loops not nested in another loop and not inside a function
// literal. Branch arms and switch cases at depth 0 still count.
func topLevelLoops(body *ast.BlockStmt) []ast.Stmt {
	var loops []ast.Stmt
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n.(ast.Stmt))
			return // nested loops are the outer loop's per-iteration work
		}
		walkChildren(n, walk)
	}
	for _, s := range body.List {
		walk(s)
	}
	return loops
}

func loopBody(s ast.Stmt) *ast.BlockStmt {
	switch s := s.(type) {
	case *ast.ForStmt:
		return s.Body
	case *ast.RangeStmt:
		return s.Body
	}
	return nil
}

// loopBodyCalls reports whether the loop body calls at least one real
// function or method (not a builtin, not a type conversion) outside any
// function literal — the threshold below which a loop is bounded local
// work the polling contract does not cover.
func loopBodyCalls(pass *Pass, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			switch fun := unparen(n.Fun).(type) {
			case *ast.Ident:
				switch pass.TypesInfo.Uses[fun].(type) {
				case *types.Builtin, *types.TypeName, nil:
					return true
				}
			case *ast.SelectorExpr:
				if _, ok := pass.TypesInfo.Uses[fun.Sel].(*types.TypeName); ok {
					return true
				}
			case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.InterfaceType, *ast.StructType:
				return true // conversion to a composite type
			}
			found = true
			return false
		}
		return true
	})
	return found
}
