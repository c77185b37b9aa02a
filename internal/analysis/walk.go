package analysis

import (
	"go/ast"
	"strings"
)

// This file holds the AST-walking vocabulary shared by the analyzers, the
// CFG builder and the call graph.

// unparen strips any number of enclosing parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// walkChildren applies walk to each direct child node of n. Walkers that
// maintain their own context stacks (loop variables, held locks, loop
// depth) use it to recurse one level at a time instead of ast.Inspect's
// full descent.
func walkChildren(n ast.Node, walk func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		walk(c)
		return false
	})
}

// forEachFuncDecl invokes fn for every function or method declaration with
// a body in the pass's files.
func forEachFuncDecl(pass *Pass, fn func(fd *ast.FuncDecl)) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// funcHasMarker reports whether the function declaration carries a
// //lint:<token> marker comment — in its doc comment group or on the line
// of (or directly above) the func keyword. Markers are annotations that
// opt a function into an analyzer's contract (e.g. //lint:hotpath), as
// opposed to escape hatches that silence one diagnostic.
func funcHasMarker(pass *Pass, fd *ast.FuncDecl, token string) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if commentMarker(c.Text) == token {
				return true
			}
		}
	}
	pos := pass.Fset.Position(fd.Pos())
	for _, line := range []int{pos.Line, pos.Line - 1} {
		key := posKey(pos.Filename, line)
		if pass.suppressed[key][token] {
			return true
		}
	}
	return false
}

// commentMarker extracts the first token of a //lint: comment, or "".
func commentMarker(text string) string {
	text = strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(text, "lint:") {
		return ""
	}
	fields := strings.Fields(strings.TrimPrefix(text, "lint:"))
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

// isPureExpr reports whether evaluating e has no side effects and calls no
// functions: identifiers, selectors, literals, index expressions, and
// arithmetic/comparison operators over them, plus len/cap. ctxpoll uses it
// to sanction the every-K polling idiom — a poll nested under a pure
// condition (`if visits&0xfff == 0 { ... }`) still counts as polled on
// every iteration path, because the gate itself cannot block or diverge.
func isPureExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case nil:
		return true
	case *ast.Ident, *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return isPureExpr(e.X)
	case *ast.SelectorExpr:
		return isPureExpr(e.X)
	case *ast.IndexExpr:
		return isPureExpr(e.X) && isPureExpr(e.Index)
	case *ast.UnaryExpr:
		return isPureExpr(e.X)
	case *ast.BinaryExpr:
		return isPureExpr(e.X) && isPureExpr(e.Y)
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || (id.Name != "len" && id.Name != "cap") {
			return false
		}
		for _, a := range e.Args {
			if !isPureExpr(a) {
				return false
			}
		}
		return true
	}
	return false
}
