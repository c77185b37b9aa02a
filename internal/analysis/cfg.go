package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the suite's intraprocedural control-flow layer: a basic-block
// CFG built from a function body and the path queries ctxpoll asks ("can
// the function exit, or one loop iteration complete, without crossing a
// barrier?").

// Block is one straight-line run of AST nodes: statements, plus the
// condition expressions of the branches the block ends in. Nodes execute in
// order; control leaves through Succs.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []Edge
}

// Edge is one control transfer.
type Edge struct {
	To *Block
	// loopEntry marks the edge from the code before a loop into the loop
	// head; iteration-path queries exclude it so a path cannot "complete an
	// iteration" by leaving the loop and re-entering from outside.
	loopEntry bool
}

// Loop records one for/range statement's anatomy in the CFG.
type Loop struct {
	Stmt ast.Stmt
	// Head evaluates the loop condition (or the range step); Body is the
	// first block of the loop body; After is where break and loop exit land.
	Head, Body, After *Block
}

// CFG is the control-flow graph of one function body. Exit is the single
// synthetic block reached by every return and by falling off the end;
// panic paths terminate without reaching it.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Loops maps each for/range statement to its anatomy.
	Loops map[ast.Stmt]*Loop
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block
	// loopStack tracks enclosing break/continue targets, innermost last.
	loopStack []cfgLoopCtx
	// pendingLabel is the label of a LabeledStmt whose statement is being
	// built (claimed by the next loop/switch for labeled break/continue).
	pendingLabel string
	labels       map[string]*Block
	gotos        []pendingGoto
}

type cfgLoopCtx struct {
	label     string
	brk, cont *Block
	isLoop    bool // switch/select push a ctx with only brk
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG constructs the CFG of a function body. The builder handles the
// full structured-statement vocabulary plus goto (labels are patched in a
// second pass); defer statements appear as ordinary nodes — consumers that
// care about end-of-function effects scan for *ast.DeferStmt themselves.
func BuildCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{Loops: make(map[ast.Stmt]*Loop)}
	b := &cfgBuilder{cfg: c, labels: make(map[string]*Block)}
	c.Entry = b.newBlock()
	c.Exit = b.newBlock()
	b.cur = c.Entry
	b.buildStmts(body.List)
	// Falling off the end of the body is an implicit return.
	b.edge(b.cur, Edge{To: c.Exit})
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, Edge{To: target})
		}
	}
	return c
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from *Block, e Edge) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, e)
}

// startBlock switches emission to blk (nil means unreachable code follows,
// e.g. after a return; a fresh dangling block absorbs it).
func (b *cfgBuilder) startBlock(blk *Block) {
	if blk == nil {
		blk = b.newBlock()
	}
	b.cur = blk
}

func (b *cfgBuilder) buildStmts(list []ast.Stmt) {
	for _, s := range list {
		b.build(s)
	}
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) build(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.buildStmts(s.List)

	case *ast.LabeledStmt:
		lbl := b.newBlock()
		b.edge(b.cur, Edge{To: lbl})
		b.startBlock(lbl)
		b.labels[s.Label.Name] = lbl
		b.pendingLabel = s.Label.Name
		b.build(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Cond)
		cond := b.cur
		then := b.newBlock()
		join := b.newBlock()
		b.edge(cond, Edge{To: then})
		b.startBlock(then)
		b.buildStmts(s.Body.List)
		b.edge(b.cur, Edge{To: join})
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, Edge{To: els})
			b.startBlock(els)
			b.build(s.Else)
			b.edge(b.cur, Edge{To: join})
		} else {
			b.edge(cond, Edge{To: join})
		}
		b.startBlock(join)

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, Edge{To: head})
		}
		b.edge(b.cur, Edge{To: head, loopEntry: true})
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.edge(head, Edge{To: body})
			b.edge(head, Edge{To: after})
		} else {
			b.edge(head, Edge{To: body})
		}
		b.cfg.Loops[s] = &Loop{Stmt: s, Head: head, Body: body, After: after}
		b.loopStack = append(b.loopStack, cfgLoopCtx{label: label, brk: after, cont: post, isLoop: true})
		b.startBlock(body)
		b.buildStmts(s.Body.List)
		b.edge(b.cur, Edge{To: post})
		b.loopStack = b.loopStack[:len(b.loopStack)-1]
		b.startBlock(after)

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		// The range operand is evaluated once, on entry; the head then
		// produces one element per iteration (the key/value bind there).
		b.cur.Nodes = append(b.cur.Nodes, s.X)
		b.edge(b.cur, Edge{To: head, loopEntry: true})
		if s.Key != nil {
			head.Nodes = append(head.Nodes, s.Key)
		}
		if s.Value != nil {
			head.Nodes = append(head.Nodes, s.Value)
		}
		b.edge(head, Edge{To: body})
		b.edge(head, Edge{To: after})
		b.cfg.Loops[s] = &Loop{Stmt: s, Head: head, Body: body, After: after}
		b.loopStack = append(b.loopStack, cfgLoopCtx{label: label, brk: after, cont: head, isLoop: true})
		b.startBlock(body)
		b.buildStmts(s.Body.List)
		b.edge(b.cur, Edge{To: head})
		b.loopStack = b.loopStack[:len(b.loopStack)-1]
		b.startBlock(after)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		label := b.takeLabel()
		var bodyList []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				b.cur.Nodes = append(b.cur.Nodes, sw.Init)
			}
			if sw.Tag != nil {
				b.cur.Nodes = append(b.cur.Nodes, sw.Tag)
			}
			bodyList = sw.Body.List
		case *ast.TypeSwitchStmt:
			if sw.Init != nil {
				b.cur.Nodes = append(b.cur.Nodes, sw.Init)
			}
			b.cur.Nodes = append(b.cur.Nodes, sw.Assign)
			bodyList = sw.Body.List
		}
		b.buildCases(bodyList, label, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		b.buildCases(s.Body.List, label, true)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findCtx(s.Label, false); t != nil {
				b.edge(b.cur, Edge{To: t})
			}
			b.startBlock(nil)
		case token.CONTINUE:
			if t := b.findCtx(s.Label, true); t != nil {
				b.edge(b.cur, Edge{To: t})
			}
			b.startBlock(nil)
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
			b.startBlock(nil)
		case token.FALLTHROUGH:
			// Handled by buildCases (the edge to the next case body); the
			// statement itself carries no other effect.
		}

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.edge(b.cur, Edge{To: b.cfg.Exit})
		b.startBlock(nil)

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if isPanicCall(s.X) {
			// A panic terminates the frame without reaching the normal
			// exit; recovery happens in the caller of the deferred chain.
			b.startBlock(nil)
		}

	default:
		// Leaf statements: assignments, declarations, sends, defers, go
		// statements, increments. All are straight-line.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// buildCases lowers a switch/select body: each clause gets its own block
// branching from the dispatch block; fallthrough chains to the next clause.
func (b *cfgBuilder) buildCases(clauses []ast.Stmt, label string, isSelect bool) {
	dispatch := b.cur
	after := b.newBlock()
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
	}
	hasDefault := false
	for i, cl := range clauses {
		var bodyStmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				dispatch.Nodes = append(dispatch.Nodes, e)
			}
			bodyStmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				blocks[i].Nodes = append(blocks[i].Nodes, cl.Comm)
			}
			bodyStmts = cl.Body
		}
		b.edge(dispatch, Edge{To: blocks[i]})
		b.loopStack = append(b.loopStack, cfgLoopCtx{label: label, brk: after})
		b.startBlock(blocks[i])
		// A trailing fallthrough transfers into the next clause's block.
		ft := false
		if n := len(bodyStmts); n > 0 {
			if br, ok := bodyStmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				ft = true
			}
		}
		b.buildStmts(bodyStmts)
		if ft && i+1 < len(blocks) {
			b.edge(b.cur, Edge{To: blocks[i+1]})
		} else {
			b.edge(b.cur, Edge{To: after})
		}
		b.loopStack = b.loopStack[:len(b.loopStack)-1]
	}
	if !hasDefault || isSelect && len(clauses) == 0 {
		b.edge(dispatch, Edge{To: after})
	}
	b.startBlock(after)
}

// findCtx resolves a break (cont=false) or continue (cont=true) target.
func (b *cfgBuilder) findCtx(label *ast.Ident, cont bool) *Block {
	for i := len(b.loopStack) - 1; i >= 0; i-- {
		ctx := b.loopStack[i]
		if cont && !ctx.isLoop {
			continue
		}
		if label != nil && ctx.label != label.Name {
			continue
		}
		if cont {
			return ctx.cont
		}
		return ctx.brk
	}
	return nil
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// PathQuery parameterizes barrier-avoiding reachability over the CFG.
type PathQuery struct {
	// Barrier reports whether executing node n discharges the property the
	// query is tracking (a cancellation poll, a span End). A path that
	// crosses a barrier is discarded.
	Barrier func(n ast.Node) bool
	// AvoidEdge discards edges the query must not traverse (loop-entry
	// edges for iteration queries, infeasible nil-test arms).
	AvoidEdge func(from *Block, e Edge) bool
	// AvoidBlock discards whole blocks (a loop's After block for iteration
	// queries).
	AvoidBlock func(b *Block) bool
}

// blockHasBarrier reports whether any node of b (from index start on) is a
// barrier.
func (q *PathQuery) blockHasBarrier(b *Block, start int) bool {
	if q.Barrier == nil {
		return false
	}
	for _, n := range b.Nodes[start:] {
		if q.Barrier(n) {
			return true
		}
	}
	return false
}

// PathExists reports whether execution can flow from the head of block
// `from` to block `to` without crossing a barrier. A path that reaches `to`
// at all counts — barriers inside `to` itself are not consulted (callers
// include them in the query when the target block's own nodes matter).
func (c *CFG) PathExists(from, to *Block, q *PathQuery) bool {
	if q.blockHasBarrier(from, 0) {
		return false
	}
	seen := make([]bool, len(c.Blocks))
	var dfs func(b *Block) bool
	dfs = func(b *Block) bool {
		for _, e := range b.Succs {
			if q.AvoidEdge != nil && q.AvoidEdge(b, e) {
				continue
			}
			next := e.To
			if next == to {
				return true
			}
			if seen[next.Index] {
				continue
			}
			seen[next.Index] = true
			if q.AvoidBlock != nil && q.AvoidBlock(next) {
				continue
			}
			if q.blockHasBarrier(next, 0) {
				continue
			}
			if dfs(next) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}

// IterationWithoutBarrier reports whether the loop can complete one full
// iteration — head, body, back to head — without crossing a barrier. It is
// the ctxpoll primitive: false means every iteration path polls.
func (c *CFG) IterationWithoutBarrier(l *Loop, q *PathQuery) bool {
	// The head's own nodes (the loop condition) run on every iteration; a
	// barrier there discharges the whole loop.
	if q.blockHasBarrier(l.Head, 0) {
		return false
	}
	inner := &PathQuery{
		Barrier: q.Barrier,
		AvoidBlock: func(b *Block) bool {
			if b == l.After {
				return true
			}
			return q.AvoidBlock != nil && q.AvoidBlock(b)
		},
		AvoidEdge: func(from *Block, e Edge) bool {
			if e.loopEntry {
				return true
			}
			return q.AvoidEdge != nil && q.AvoidEdge(from, e)
		},
	}
	return c.PathExists(l.Head, l.Head, inner)
}
