package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/analysis"
)

// parseBody parses a function body from source and returns it. The CFG
// builder is purely syntactic, so no typechecking is needed here.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parsing body: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// callBarrier matches nodes whose subtree calls the named function.
func callBarrier(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return !found
		})
		return found
	}
}

func TestCFGPathExistsBarrier(t *testing.T) {
	// poll() covers only the true arm: a barrier-avoiding path to the exit
	// exists through the else arm.
	cfg := analysis.BuildCFG(parseBody(t, `
	if cond() {
		poll()
	}
	work()
`))
	q := &analysis.PathQuery{Barrier: callBarrier("poll")}
	if !cfg.PathExists(cfg.Entry, cfg.Exit, q) {
		t.Errorf("want a poll-free path through the untaken branch")
	}

	// poll() on every path: no barrier-free path remains.
	covered := analysis.BuildCFG(parseBody(t, `
	if cond() {
		poll()
	} else {
		poll()
	}
	work()
`))
	if covered.PathExists(covered.Entry, covered.Exit, q) {
		t.Errorf("both arms poll; no barrier-free path should exist")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	// The panic arm never reaches the exit, so the only surviving path
	// crosses poll().
	cfg := analysis.BuildCFG(parseBody(t, `
	if cond() {
		panic("boom")
	}
	poll()
`))
	q := &analysis.PathQuery{Barrier: callBarrier("poll")}
	if cfg.PathExists(cfg.Entry, cfg.Exit, q) {
		t.Errorf("panic path must not count as reaching the exit")
	}
}

func TestCFGIterationWithoutBarrier(t *testing.T) {
	body := parseBody(t, `
	for i := 0; i < n; i++ {
		if skip(i) {
			continue
		}
		poll()
		work(i)
	}
`)
	cfg := analysis.BuildCFG(body)
	if len(cfg.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(cfg.Loops))
	}
	q := &analysis.PathQuery{Barrier: callBarrier("poll")}
	for _, l := range cfg.Loops {
		if !cfg.IterationWithoutBarrier(l, q) {
			t.Errorf("the continue path completes an iteration without poll(); want it found")
		}
	}

	covered := analysis.BuildCFG(parseBody(t, `
	for i := 0; i < n; i++ {
		poll()
		if skip(i) {
			continue
		}
		work(i)
	}
`))
	for _, l := range covered.Loops {
		if covered.IterationWithoutBarrier(l, q) {
			t.Errorf("poll() leads every iteration; no barrier-free iteration should exist")
		}
	}
}

func TestCFGLoopsIndexedByStatement(t *testing.T) {
	body := parseBody(t, `
	for _, x := range xs {
		work(x)
	}
	for i := 0; i < n; i++ {
		work(i)
	}
`)
	cfg := analysis.BuildCFG(body)
	if len(cfg.Loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(cfg.Loops))
	}
	for stmt, l := range cfg.Loops {
		switch stmt.(type) {
		case *ast.RangeStmt, *ast.ForStmt:
		default:
			t.Errorf("loop keyed by %T, want a for/range statement", stmt)
		}
		if l.Head == nil || l.Body == nil {
			t.Errorf("loop missing head or body block")
		}
	}
}
