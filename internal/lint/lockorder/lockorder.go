// Package lockorder builds the module's global lock-acquisition graph and
// enforces two invariants, within one function and across call chains:
//
//  1. lock acquisition order forms a DAG. An edge A → B exists when any
//     path acquires B (directly or through any chain of calls, including
//     interface dispatch) while holding A; a cycle means two goroutines
//     can acquire the locks in opposite orders and deadlock. This is the
//     lockdep approach, keyed by struct field rather than lock instance.
//  2. no path holds a sync.Mutex/RWMutex into a blocking operation — a
//     channel send (a bare one, or a send clause of a select with no
//     default), WaitGroup.Wait, Cond.Wait, or file Sync — made in the
//     function itself or reached through a call chain. With bounded
//     inter-node queues (back-pressure by design, §5.3), a send on a full
//     one stalls with the lock held.
//
// Locks copied by value are go vet's copylocks finding, not this one.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"

	"asterixfeeds/internal/lint"
	"asterixfeeds/internal/lint/ipa"
)

// Analyzer implements lint.ModuleAnalyzer.
type Analyzer struct{}

// New returns the lockorder analyzer.
func New() *Analyzer { return &Analyzer{} }

// Name implements lint.Analyzer.
func (*Analyzer) Name() string { return "lockorder" }

// Doc implements lint.Analyzer.
func (*Analyzer) Doc() string {
	return "lock-order cycles (deadlock risk) and locks held into blocking operations, in a function or across call chains"
}

// reportedKinds are the blocking kinds flagged under a held lock — the
// rule's exact scope: channel sends, Waits, and file Syncs. Receives and
// default-less selects are summarized by ipa but deliberately not
// reported: the feed stack legitimately holds short critical sections
// around receives, and graceful-teardown selects bound their blocking
// with timeout cases the summary cannot see.
var reportedKinds = map[string]bool{
	ipa.KindSend:     true,
	ipa.KindWGWait:   true,
	ipa.KindCondWait: true,
	ipa.KindSync:     true,
}

// edge is one observed acquisition ordering: To acquired while From held.
type edge struct {
	from, to ipa.LockKey
	pos      token.Position
	fn       string // display name of the function establishing the edge
	via      string // call chain when the acquisition is transitive
}

type scanner struct {
	prog     *ipa.Program
	pkg      *lint.Package
	fn       *ipa.Func
	edges    *map[[2]ipa.LockKey]*edge
	findings *[]lint.Finding
	seen     map[string]bool // dedup of held-into-blocking findings
}

// RunModule implements lint.ModuleAnalyzer.
func (a *Analyzer) RunModule(pkgs []*lint.Package) []lint.Finding {
	prog := ipa.For(pkgs)
	edges := make(map[[2]ipa.LockKey]*edge)
	var findings []lint.Finding
	seen := make(map[string]bool)
	for _, fn := range prog.SortedFuncs() {
		s := &scanner{prog: prog, pkg: fn.Pkg, fn: fn, edges: &edges, findings: &findings, seen: seen}
		s.scanStmts(fn.Decl.Body.List, make(heldSet))
	}
	findings = append(findings, cycleFindings(edges)...)
	return findings
}

// heldSet tracks which abstract locks are held at a program point.
type heldSet map[ipa.LockKey]*heldLock

type heldLock struct {
	expr string
	read bool
	pos  token.Position
}

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (s *scanner) scanStmts(stmts []ast.Stmt, held heldSet) {
	for _, st := range stmts {
		s.scanStmt(st, held)
	}
}

// scanStmt walks one statement in source order: compound statements get a
// copy of the held set (assumed lock-balanced), and a deferred Unlock
// keeps the lock held to the end of the body.
func (s *scanner) scanStmt(st ast.Stmt, held heldSet) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		s.processExpr(st.X, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.processExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.processExpr(e, held)
		}
	case *ast.IncDecStmt:
		s.processExpr(st.X, held)
	case *ast.SendStmt:
		s.processExpr(st.Chan, held)
		s.processExpr(st.Value, held)
		s.reportSend(st, held)
	case *ast.GoStmt:
		// The goroutine runs under its own (empty) lock state, and the
		// spawned call's effects are not the spawner's.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.scanStmts(lit.Body.List, make(heldSet))
		}
	case *ast.DeferStmt:
		// defer x.Unlock() is ignored (the lock stays held to the end of
		// the body); any other deferred work runs while every lock whose
		// unlock is also deferred is still held — LIFO order means a
		// defer registered after `defer mu.Unlock()` executes before the
		// unlock. Scanning the deferred call with the current held state
		// is the approximation that catches `defer f.Sync()` after
		// `defer mu.Unlock()`.
		if op, ok := ipa.LockOpAt(s.pkg, st.Call); ok && !op.Acquire {
			return
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			s.scanStmts(lit.Body.List, held.clone())
			return
		}
		s.processExpr(st.Call, held)
	case *ast.BlockStmt:
		s.scanStmts(st.List, held.clone())
	case *ast.IfStmt:
		inner := held.clone()
		if st.Init != nil {
			s.scanStmt(st.Init, inner)
		}
		s.processExpr(st.Cond, inner)
		s.scanStmts(st.Body.List, inner.clone())
		if st.Else != nil {
			s.scanStmt(st.Else, inner.clone())
		}
	case *ast.ForStmt:
		inner := held.clone()
		if st.Init != nil {
			s.scanStmt(st.Init, inner)
		}
		if st.Cond != nil {
			s.processExpr(st.Cond, inner)
		}
		s.scanStmts(st.Body.List, inner)
	case *ast.RangeStmt:
		s.processExpr(st.X, held)
		s.scanStmts(st.Body.List, held.clone())
	case *ast.LabeledStmt:
		s.scanStmt(st.Stmt, held)
	case *ast.SwitchStmt:
		inner := held.clone()
		if st.Init != nil {
			s.scanStmt(st.Init, inner)
		}
		if st.Tag != nil {
			s.processExpr(st.Tag, inner)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body, inner.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		// Every clause's channel and send value evaluate when the select
		// is entered, before it chooses, so their calls run under the held
		// locks ahead of any clause body. With a default clause the select
		// cannot block, so its send clauses are not reported.
		hasDefault := false
		for _, c := range st.Body.List {
			hasDefault = hasDefault || c.(*ast.CommClause).Comm == nil
		}
		for _, c := range st.Body.List {
			switch comm := c.(*ast.CommClause).Comm.(type) {
			case *ast.SendStmt:
				s.processExpr(comm.Chan, held)
				s.processExpr(comm.Value, held)
				if !hasDefault {
					s.reportSend(comm, held)
				}
			case *ast.ExprStmt: // case <-ch:
				s.processExpr(comm.X, held)
			case *ast.AssignStmt: // case v := <-ch:
				s.processExpr(comm.Rhs[0], held)
			}
		}
		for _, c := range st.Body.List {
			s.scanStmts(c.(*ast.CommClause).Body, held.clone())
		}
	}
}

// reportSend reports a channel send made in this function under each
// held lock.
func (s *scanner) reportSend(send *ast.SendStmt, held heldSet) {
	pos := s.pkg.Fset.Position(send.Arrow)
	for key, info := range held {
		s.reportOnce(key, pos, ipa.KindSend, pos, fmt.Sprintf("%s while holding %s (locked at line %d); a full queue blocks with the lock held",
			ipa.KindSend, info.expr, info.pos.Line))
	}
}

// processExpr applies lock-state and edge effects of every call inside
// one expression, in source order. Function literals are scanned under a
// fresh lock state (they run later) except immediately-invoked ones,
// which inherit the current state.
func (s *scanner) processExpr(e ast.Expr, held heldSet) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.scanStmts(n.Body.List, make(heldSet))
			return false
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately invoked: body runs here, under held locks.
				for _, arg := range n.Args {
					s.processExpr(arg, held)
				}
				s.scanStmts(lit.Body.List, held.clone())
				return false
			}
			// Arguments evaluate before the call.
			for _, arg := range n.Args {
				s.processExpr(arg, held)
			}
			s.processCall(n, held)
			return false
		}
		return true
	})
}

// processCall handles one resolved call: lock ops mutate the held set;
// blocking calls and callee summaries are checked against it.
func (s *scanner) processCall(call *ast.CallExpr, held heldSet) {
	pos := s.pkg.Fset.Position(call.Pos())
	if op, ok := ipa.LockOpAt(s.pkg, call); ok {
		if op.Acquire {
			if op.Key.Global() {
				for from, info := range held {
					s.addEdge(from, op.Key, pos, info, "")
				}
			}
			held[op.Key] = &heldLock{expr: op.Expr, read: op.Read, pos: pos}
		} else {
			delete(held, op.Key)
		}
		return
	}
	if kind, ok := ipa.BlockingCallAt(s.pkg, call); ok {
		if reportedKinds[kind] {
			for key, info := range held {
				if kind == ipa.KindCondWait && s.condOwnLock(call, key) {
					continue
				}
				s.reportOnce(key, pos, kind, pos, fmt.Sprintf("%s while holding %s (locked at line %d); a stall here freezes every path needing the lock",
					kind, info.expr, info.pos.Line))
			}
		}
		return
	}
	for _, target := range s.prog.TargetsOf(call) {
		if target.Obj == s.fn.Obj {
			continue
		}
		for _, key := range target.Summary.SortedAcquires() {
			site := target.Summary.Acquires[key]
			for from, info := range held {
				s.addEdge(from, key, pos, info, target.Display()+site.Via())
			}
		}
		if len(held) == 0 {
			continue
		}
		kinds := make([]string, 0, len(target.Summary.Blocks))
		for kind := range target.Summary.Blocks {
			if reportedKinds[kind] {
				kinds = append(kinds, kind)
			}
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			site := target.Summary.Blocks[kind]
			for key, info := range held {
				if kind == ipa.KindCondWait && site.CondKey.Global() && s.prog.CondBinding[site.CondKey] == key {
					// Waiting on a cond while holding the lock the cond was
					// constructed over is the mandatory sync.Cond protocol,
					// not a hazard.
					continue
				}
				s.reportOnce(key, site.Pos, kind, pos, fmt.Sprintf("call to %s may block (%s at %s:%d%s) while holding %s (locked at line %d)",
					target.Display(), kind, baseName(site.Pos.Filename), site.Pos.Line, site.Via(), info.expr, info.pos.Line))
			}
		}
	}
}

// condOwnLock reports whether a direct cond.Wait() call waits on a cond
// bound (via sync.NewCond) to the held lock key — the mandatory pattern.
func (s *scanner) condOwnLock(call *ast.CallExpr, held ipa.LockKey) bool {
	ck, ok := ipa.CondVarKey(s.pkg, call)
	return ok && ck.Global() && s.prog.CondBinding[ck] == held
}

func (s *scanner) addEdge(from, to ipa.LockKey, pos token.Position, info *heldLock, via string) {
	if from == to && info.read {
		// Re-acquiring the same read lock through a helper is benign in
		// this codebase's idiom; write self-edges stay fatal.
		return
	}
	k := [2]ipa.LockKey{from, to}
	if (*s.edges)[k] == nil {
		(*s.edges)[k] = &edge{from: from, to: to, pos: pos, fn: s.fn.Display(), via: via}
	}
}

// reportOnce emits one held-into-blocking finding per (held lock,
// ultimate blocking site, kind) triple, module-wide. Many callers funnel
// into the same deep blocking operation under the same lock; the first
// caller (in deterministic scan order) anchors the finding and the rest
// add nothing actionable.
func (s *scanner) reportOnce(held ipa.LockKey, site token.Position, kind string, pos token.Position, msg string) {
	key := fmt.Sprintf("%s|%s:%d|%s", held, site.Filename, site.Line, kind)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	*s.findings = append(*s.findings, lint.Finding{Pos: pos, Rule: "lockorder", Message: msg})
}

func baseName(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			return path[i+1:]
		}
	}
	return path
}

// cycleFindings reports every strongly connected component of the
// acquisition graph that contains a cycle, once, anchored at its
// lexically smallest edge.
func cycleFindings(edges map[[2]ipa.LockKey]*edge) []lint.Finding {
	adj := make(map[ipa.LockKey][]*edge)
	var nodes []ipa.LockKey
	seenNode := make(map[ipa.LockKey]bool)
	addNode := func(k ipa.LockKey) {
		if !seenNode[k] {
			seenNode[k] = true
			nodes = append(nodes, k)
		}
	}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e)
		addNode(e.from)
		addNode(e.to)
	}
	sort.Slice(nodes, func(i, j int) bool { return lockKeyLess(nodes[i], nodes[j]) })
	for _, es := range adj {
		sort.Slice(es, func(i, j int) bool { return lockKeyLess(es[i].to, es[j].to) })
	}

	sccs := tarjan(nodes, adj)
	var out []lint.Finding
	for _, scc := range sccs {
		inSCC := make(map[ipa.LockKey]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		var cyc []*edge
		for _, n := range scc {
			for _, e := range adj[n] {
				if inSCC[e.to] && (len(scc) > 1 || e.from == e.to) {
					cyc = append(cyc, e)
				}
			}
		}
		if len(cyc) == 0 {
			continue
		}
		sort.Slice(cyc, func(i, j int) bool { return posLess(cyc[i].pos, cyc[j].pos) })
		msg := "lock-order cycle (deadlock risk): "
		for i, e := range cyc {
			if i > 0 {
				msg += "; "
			}
			msg += fmt.Sprintf("%s → %s in %s at %s:%d", e.from, e.to, e.fn, baseName(e.pos.Filename), e.pos.Line)
			if e.via != "" {
				msg += " (via " + e.via + ")"
			}
		}
		out = append(out, lint.Finding{Pos: cyc[0].pos, Rule: "lockorder", Message: msg})
	}
	return out
}

func lockKeyLess(a, b ipa.LockKey) bool {
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	return a.Field < b.Field
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Line < b.Line
}

// tarjan computes strongly connected components over the lock graph,
// iteratively, in deterministic node order.
func tarjan(nodes []ipa.LockKey, adj map[ipa.LockKey][]*edge) [][]ipa.LockKey {
	index := make(map[ipa.LockKey]int)
	low := make(map[ipa.LockKey]int)
	onStack := make(map[ipa.LockKey]bool)
	var stack []ipa.LockKey
	var sccs [][]ipa.LockKey
	next := 0

	type frame struct {
		node ipa.LockKey
		ei   int
	}
	for _, start := range nodes {
		if _, ok := index[start]; ok {
			continue
		}
		frames := []frame{{node: start}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(adj[f.node]) {
				e := adj[f.node][f.ei]
				f.ei++
				w := e.to
				if _, ok := index[w]; !ok {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{node: w})
				} else if onStack[w] {
					if index[w] < low[f.node] {
						low[f.node] = index[w]
					}
				}
				continue
			}
			// Node finished.
			if low[f.node] == index[f.node] {
				var scc []ipa.LockKey
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.node {
						break
					}
				}
				sort.Slice(scc, func(i, j int) bool { return lockKeyLess(scc[i], scc[j]) })
				sccs = append(sccs, scc)
			}
			child := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[child] < low[parent.node] {
					low[parent.node] = low[child]
				}
			}
		}
	}
	return sccs
}
