package ipa

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Blocking-operation kinds recorded in summaries. Analyzers pick which
// kinds they report: lockorder, for instance, flags send/Wait/Sync/select
// under a held lock but leaves plain receives alone.
const (
	KindSend     = "channel send"
	KindRecv     = "channel receive"
	KindSelect   = "select with no default"
	KindWGWait   = "WaitGroup.Wait"
	KindCondWait = "Cond.Wait"
	KindSync     = "file Sync"
)

// Site is one concrete operation a summary fact points at, with the call
// chain that reaches it from the summarized function ("" chain for a
// direct fact). Pos is always the position of the operation itself.
type Site struct {
	// Pos locates the operation (the send, the Lock call).
	Pos token.Position
	// Kind is the operation kind, one of the Kind* constants for
	// blocking facts.
	Kind string
	// Path lists the callee display names from the summarized function
	// down to the function containing the operation; empty for a fact in
	// the function itself.
	Path []string
	// CondKey, for KindCondWait sites, abstracts the condition variable
	// (e.g. {Mongo, commitCond}); consumers can look its bound lock up in
	// Program.CondBinding to exempt the mandatory wait-under-own-lock
	// pattern. Zero otherwise.
	CondKey LockKey
}

// Via renders the call chain for messages, e.g. " via lsm.(*Tree).Apply →
// lsm.(*wal).append"; empty for direct facts.
func (s *Site) Via() string {
	if len(s.Path) == 0 {
		return ""
	}
	return " via " + strings.Join(s.Path, " → ")
}

// Summary holds one function's interprocedural facts: what it may do on
// its own goroutine, directly or through any chain of synchronous calls.
type Summary struct {
	// Blocks maps blocking-operation kinds the function may reach to a
	// representative site. A function missing a kind cannot reach it.
	Blocks map[string]*Site
	// Acquires maps every lock the function may acquire (Lock or RLock,
	// released or not — acquisition order matters either way) to a
	// representative acquisition site. Function-local locks, which
	// cannot be correlated across calls, are excluded.
	Acquires map[LockKey]*Site
}

func (s *Summary) addBlock(kind string, site *Site) bool {
	if s.Blocks == nil {
		s.Blocks = make(map[string]*Site)
	}
	if s.Blocks[kind] != nil {
		return false
	}
	s.Blocks[kind] = site
	return true
}

func (s *Summary) addAcquire(key LockKey, site *Site) bool {
	if s.Acquires == nil {
		s.Acquires = make(map[LockKey]*Site)
	}
	if s.Acquires[key] != nil {
		return false
	}
	s.Acquires[key] = site
	return true
}

// computeDirect records the facts fn establishes in its own body.
func (p *Program) computeDirect(fn *Func) {
	pkg := fn.Pkg
	pos := func(n ast.Node) token.Position { return pkg.Fset.Position(n.Pos()) }
	// Channel operations that are a select's communication clause are the
	// select's to classify: with a default case they are non-blocking
	// (`select { case ch <- v: default: }`), without one the SelectStmt
	// itself is recorded. Either way the bare op must not be.
	commOps := make(map[ast.Node]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if cc, ok := n.(*ast.CommClause); ok && cc.Comm != nil {
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				switch m.(type) {
				case *ast.SendStmt, *ast.UnaryExpr:
					commOps[m] = true
				case *ast.CallExpr:
					return false // operand calls still count as their own ops
				}
				return true
			})
		}
		return true
	})
	WalkSync(fn.Decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !commOps[n] {
				fn.Summary.addBlock(KindSend, &Site{Pos: pkg.Fset.Position(n.Arrow), Kind: KindSend})
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !commOps[n] {
				fn.Summary.addBlock(KindRecv, &Site{Pos: pos(n), Kind: KindRecv})
			}
		case *ast.RangeStmt:
			if t := pkg.Info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					fn.Summary.addBlock(KindRecv, &Site{Pos: pos(n), Kind: KindRecv})
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				fn.Summary.addBlock(KindSelect, &Site{Pos: pos(n), Kind: KindSelect})
			}
		case *ast.CallExpr:
			if op, ok := LockOpAt(pkg, n); ok {
				if op.Acquire && op.Key.Global() {
					fn.Summary.addAcquire(op.Key, &Site{Pos: pos(n), Kind: op.Op})
				}
				return
			}
			if kind, ok := BlockingCallAt(pkg, n); ok {
				site := &Site{Pos: pos(n), Kind: kind}
				if kind == KindCondWait {
					if ck, ok := CondVarKey(pkg, n); ok {
						site.CondKey = ck
					}
				}
				fn.Summary.addBlock(kind, site)
			}
		}
	})
}

// propagate folds callee summaries into callers until nothing changes.
// Both fact families are monotone (sets only grow), so the loop
// terminates; functions are visited in source order each round, keeping
// the representative sites deterministic.
func (p *Program) propagate() {
	for changed := true; changed; {
		changed = false
		for _, fn := range p.funcs {
			for _, call := range fn.Calls {
				for _, target := range call.Targets {
					if target == fn {
						continue
					}
					for kind, site := range target.Summary.Blocks {
						if fn.Summary.Blocks[kind] == nil {
							fn.Summary.addBlock(kind, lifted(target, site))
							changed = true
						}
					}
					for key, site := range target.Summary.Acquires {
						if fn.Summary.Acquires[key] == nil {
							fn.Summary.addAcquire(key, lifted(target, site))
							changed = true
						}
					}
				}
			}
		}
	}
}

// lifted rebases a callee's site one level up the call chain.
func lifted(target *Func, site *Site) *Site {
	path := make([]string, 0, len(site.Path)+1)
	path = append(path, target.Display())
	path = append(path, site.Path...)
	return &Site{Pos: site.Pos, Kind: site.Kind, Path: path, CondKey: site.CondKey}
}

// SortedAcquires returns the summary's lock keys in deterministic order.
func (s *Summary) SortedAcquires() []LockKey {
	keys := make([]LockKey, 0, len(s.Acquires))
	for k := range s.Acquires {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}
