package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ParShard enforces worker-spawn hygiene at the engine's parallel fan-out
// sites (ExploreIDParallel's frontier-warming shards, the worker pool
// behind them). Two bugs recur in hand-rolled worker pools and both
// destroy the engine's bit-identical parallel/serial equivalence or
// deadlock it outright:
//
//   - capturing the loop variable in a `go func(){...}()` body: the
//     engine's spawn sites pin each worker's shard by passing it as an
//     argument; an implicit capture ties the worker to the loop's scoping
//     semantics instead of its spawn-time input (and under pre-1.22
//     semantics every worker observed the final index);
//   - sending on an unbuffered channel from a spawned goroutine in a
//     function that never receives from it and never blocks on a
//     sync.WaitGroup: the send either deadlocks or the goroutine leaks
//     past the barrier the merge step assumes.
//
// A third rule guards the sharded successor cache's lock order: per-shard
// locks never nest. A function that acquires the lock of one shard or
// stripe (a mutex held by a value whose type name contains "shard" or
// "stripe") while still holding another's is one hash collision away from
// an ABBA deadlock — cross-shard work must release the first shard, or
// route through a global mutex that is ordered after every shard lock.
// The walk is linear and intraprocedural: a deferred Unlock counts as
// held to the end of the function, and a function literal starts a fresh
// context (it runs on its own goroutine or after the caller returns).
//
// The first two checks apply to every `go` statement with a
// function-literal body, the third to every function; //lint:unsync
// suppresses a finding at a site with external synchronization or a
// deliberate global acquisition order.
var ParShard = &Analyzer{
	Name:     "parshard",
	Suppress: "unsync",
	Doc: "flag loop-variable captures and unsynchronized unbuffered-channel sends inside " +
		"worker goroutines spawned at parallel fan-out sites, and nested acquisitions " +
		"of per-shard locks",
	Run: runParShard,
}

func runParShard(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkParShardFunc(pass, fd.Body)
			checkShardLockNesting(pass, fd.Body)
		}
	}
	return nil
}

// checkParShardFunc inspects one function body: it records which channel
// objects the function receives from (or whether it waits on a WaitGroup),
// tracks loop-variable scopes, and checks every go-statement closure
// against both rules.
func checkParShardFunc(pass *Pass, body *ast.BlockStmt) {
	received, waits := collectSyncFacts(pass, body)

	// Walk with an explicit stack of loop-variable objects so closures know
	// which identifiers are iteration variables of an enclosing loop.
	var loopVars []types.Object
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.ForStmt:
			mark := len(loopVars)
			if init, ok := n.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							loopVars = append(loopVars, obj)
						}
					}
				}
			}
			walkChildren(n, walk)
			loopVars = loopVars[:mark]
			return
		case *ast.RangeStmt:
			mark := len(loopVars)
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						loopVars = append(loopVars, obj)
					}
				}
			}
			walkChildren(n, walk)
			loopVars = loopVars[:mark]
			return
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkSpawnedWorker(pass, lit, loopVars, received, waits)
			}
		}
		walkChildren(n, walk)
	}
	walk(body)
}

// collectSyncFacts scans a function body for the synchronization constructs
// that discharge the unbuffered-send rule: receives from channels (unary
// <-ch, range over ch, select comm clauses, assignment receives) and
// sync.WaitGroup Wait calls.
func collectSyncFacts(pass *Pass, body *ast.BlockStmt) (received map[types.Object]bool, waits bool) {
	received = make(map[types.Object]bool)
	markRecv := func(e ast.Expr) {
		if id, ok := unparen(e).(*ast.Ident); ok {
			if obj := pass.ObjectOf(id); obj != nil {
				received[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				markRecv(n.X)
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					markRecv(n.X)
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if t := pass.TypeOf(sel.X); t != nil && isWaitGroup(t) {
					waits = true
				}
			}
		}
		return true
	})
	return received, waits
}

// checkSpawnedWorker applies both hygiene rules to one spawned closure.
func checkSpawnedWorker(pass *Pass, lit *ast.FuncLit, loopVars []types.Object, received map[types.Object]bool, waits bool) {
	inLoop := make(map[types.Object]bool, len(loopVars))
	for _, obj := range loopVars {
		inLoop[obj] = true
	}
	// Identifiers declared by the closure's own parameters shadow loop
	// variables; Uses entries resolve to the parameter object, so the map
	// lookup below naturally misses them.
	reportedVars := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[n]
			if obj != nil && inLoop[obj] && !reportedVars[obj] {
				reportedVars[obj] = true
				pass.Reportf(n.Pos(),
					"worker goroutine captures loop variable %s: spawn sites must pin each worker's shard by passing it as a closure argument, not an implicit capture",
					n.Name)
			}
		case *ast.SendStmt:
			chExpr := unparen(n.Chan)
			t := pass.TypeOf(chExpr)
			if t == nil {
				return true
			}
			if !isUnbufferedChan(pass, chExpr) {
				return true
			}
			id, ok := chExpr.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.ObjectOf(id)
			if obj == nil || received[obj] || waits {
				return true
			}
			pass.Reportf(n.Pos(),
				"worker goroutine sends on unbuffered channel %s but the spawning function neither receives from it nor waits on a sync.WaitGroup: the send blocks past the merge barrier (buffer the channel to the worker count, or //lint:unsync if synchronized externally)",
				id.Name)
		}
		return true
	})
}

// checkShardLockNesting traverses the function's CFG tracking which
// shard/stripe locks are held along each path, and reports any acquisition
// of a second, distinct shard lock while one is held. Held locks are
// canonicalized holder expressions; the DFS is memoized on (block,
// held-set) so reconvergent paths with the same lock state are walked
// once. Deferred operations never land mid-body and are skipped; a
// function literal runs on its own goroutine (spawn sites) or after the
// enclosing frame is gone (callbacks), so it is checked in a fresh context
// of its own.
func checkShardLockNesting(pass *Pass, body *ast.BlockStmt) {
	cfg := BuildCFG(body)
	reported := make(map[string]bool) // pos|holder|held — one report per pair
	visited := make(map[string]bool)  // blockIndex|held-set

	// processNode interprets the lock operations of one straight-line node,
	// mutating and returning the held set.
	var processNode func(n ast.Node, held []string) []string
	processNode = func(n ast.Node, held []string) []string {
		ast.Inspect(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.DeferStmt:
				return false
			case *ast.FuncLit:
				checkShardLockNesting(pass, c.Body)
				return false
			case *ast.CallExpr:
				holder, op, ok := shardLockOp(pass, c)
				if !ok {
					return true
				}
				switch op {
				case "Lock", "RLock":
					for _, h := range held {
						if h == holder {
							continue
						}
						key := fmt.Sprintf("%d|%s|%s", c.Pos(), holder, h)
						if reported[key] {
							continue
						}
						reported[key] = true
						pass.Reportf(c.Pos(),
							"acquires shard lock %s.%s while holding %s's: per-shard locks must never nest (release the first shard, or order through a non-shard mutex)",
							holder, op, h)
					}
					held = append(held, holder)
				case "Unlock", "RUnlock":
					for i := len(held) - 1; i >= 0; i-- {
						if held[i] == holder {
							held = append(held[:i], held[i+1:]...)
							break
						}
					}
				}
			}
			return true
		})
		return held
	}

	var visit func(b *Block, held []string)
	visit = func(b *Block, held []string) {
		key := fmt.Sprintf("%d|%s", b.Index, strings.Join(held, "\x00"))
		if visited[key] {
			return
		}
		visited[key] = true
		held = append([]string(nil), held...)
		for _, n := range b.Nodes {
			held = processNode(n, held)
		}
		for _, e := range b.Succs {
			visit(e.To, held)
		}
	}
	visit(cfg.Entry, nil)
}

// shardLockOp matches a mutex operation (Lock/RLock/Unlock/RUnlock) whose
// mutex belongs to a shard-like holder — a value whose named type contains
// "shard" or "stripe" (case-insensitive), found by walking down the
// receiver's selector chain (sh.mu.Lock(): the mutex expr sh.mu is not
// shard-named, the next hop sh is). holder is the canonicalized source
// text of the shard expression, the unit the nesting tracker keys on.
func shardLockOp(pass *Pass, call *ast.CallExpr) (holder, op string, ok bool) {
	fun, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	op = fun.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	for e := unparen(fun.X); e != nil; {
		if isShardNamed(pass.TypeOf(e)) {
			return types.ExprString(e), op, true
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = unparen(x.X)
		case *ast.StarExpr:
			e = unparen(x.X)
		case *ast.UnaryExpr:
			e = unparen(x.X)
		default:
			return "", "", false
		}
	}
	return "", "", false
}

// isShardNamed reports whether t (possibly behind a pointer) is a named
// type whose name contains "shard" or "stripe", case-insensitive.
func isShardNamed(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := strings.ToLower(named.Obj().Name())
	return strings.Contains(name, "shard") || strings.Contains(name, "stripe")
}

// isUnbufferedChan reports whether the expression is a channel created by a
// `make(chan T)` with no capacity argument visible in the same function or
// file. Channels of unknown origin (parameters, fields) are assumed
// buffered — the rule only fires on locally provable mistakes.
func isUnbufferedChan(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	def := findDefiningMake(pass, obj)
	if def == nil {
		return false
	}
	return len(def.Args) == 1 // make(chan T) — no capacity
}

// findDefiningMake locates the make(chan ...) call assigned to obj, if the
// declaration is visible in the analyzed files.
func findDefiningMake(pass *Pass, obj types.Object) *ast.CallExpr {
	var def *ast.CallExpr
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if def != nil {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.Defs[id] != obj || i >= len(as.Rhs) {
					continue
				}
				if call, ok := unparen(as.Rhs[i]).(*ast.CallExpr); ok {
					if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "make" {
						def = call
					}
				}
			}
			return true
		})
	}
	return def
}

// isWaitGroup reports whether t is sync.WaitGroup (possibly behind a
// pointer).
func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
