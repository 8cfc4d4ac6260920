// Package ipa is the interprocedural layer under feedlint's concurrency
// analyzer, lockorder. It builds a module-wide
// call graph — static calls plus method-set resolution for interface
// dispatch — and per-function summaries of the facts that matter across
// function boundaries: which locks a function may acquire and which
// blocking operations it may reach.
// Summaries are propagated over the call graph to a fixpoint, in the
// spirit of golang.org/x/tools/go/analysis fact propagation, so a lock
// passed one call deep or a blocking send buried in a helper is visible
// to the analyzers that consume the Program.
//
// Everything here is stdlib-only (go/ast, go/types) and derived from
// lint.Package, the framework's loaded-module representation.
package ipa

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"sync"

	"asterixfeeds/internal/lint"
)

// Program is the interprocedural view of one loaded module: every
// declared function with a body, its resolved call sites, and its
// summary. A Program is immutable after Build and safe for concurrent
// use by analyzers.
type Program struct {
	// Pkgs are the module packages the program was built from.
	Pkgs []*lint.Package
	// Funcs maps the type-checker's function objects to program nodes.
	Funcs map[*types.Func]*Func

	// funcs is Funcs in deterministic (position) order.
	funcs []*Func
	// targets resolves every call expression in the module (including
	// calls inside go statements and detached literals) to its
	// module-internal candidate targets.
	targets map[*ast.CallExpr][]*Func
	// named are the module-defined named (non-interface) types, used for
	// interface method-set resolution.
	named []*types.Named
	// implCache memoizes implementersOf per interface+method.
	implCache map[string][]*Func

	// CondBinding maps a condition variable's abstract key (the field or
	// package variable holding the *sync.Cond) to the key of the lock it
	// was constructed over: `m.cond = sync.NewCond(&m.mu)` yields
	// {Mongo, cond} → {Mongo, mu}. Cond.Wait requires holding exactly that
	// lock, so analyzers exempt the pair from held-into-blocking reports.
	CondBinding map[LockKey]LockKey
}

// Func is one declared function or method with a body.
type Func struct {
	// Obj is the type-checker object; Decl its syntax; Pkg its package.
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *lint.Package
	// Calls are the call sites on the function's own goroutine (calls
	// under a go statement or inside a detached function literal are
	// excluded), resolved to module-internal targets. Only these
	// propagate summary facts to the caller.
	Calls []Call
	// Summary holds the function's interprocedural facts after Build.
	Summary Summary
}

// Call is one resolved synchronous call site.
type Call struct {
	// Site is the call expression.
	Site *ast.CallExpr
	// Targets are the module-internal candidate callees: exactly one for
	// static calls, every implementing method for interface dispatch.
	Targets []*Func
}

// Display renders the function as pkg.Func or pkg.(*Recv).Method with the
// package's short name, the form used in finding messages.
func (f *Func) Display() string {
	obj := f.Obj
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			ptr = "*"
		}
		if n, ok := rt.(*types.Named); ok {
			if ptr != "" {
				name = "(" + ptr + n.Obj().Name() + ")." + name
			} else {
				name = n.Obj().Name() + "." + name
			}
		}
	}
	return shortPkg(obj.Pkg().Path()) + "." + name
}

// shortPkg trims an import path to its last segment: the display form.
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// build cache: analyzers running concurrently over the same loaded module
// share one Program instead of re-deriving the call graph three times.
var (
	cacheMu sync.Mutex
	cache   = make(map[*lint.Package]*Program)
)

// For returns the Program for pkgs, building it on first use. The cache
// is keyed by the first package's identity: lint loads a module once per
// run, so the same slice contents always mean the same module snapshot.
func For(pkgs []*lint.Package) *Program {
	if len(pkgs) == 0 {
		return &Program{Funcs: map[*types.Func]*Func{}, targets: map[*ast.CallExpr][]*Func{},
			implCache: map[string][]*Func{}, CondBinding: map[LockKey]LockKey{}}
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := cache[pkgs[0]]; ok {
		return p
	}
	p := Build(pkgs)
	cache[pkgs[0]] = p
	return p
}

// Build constructs the call graph and computes summaries to fixpoint.
func Build(pkgs []*lint.Package) *Program {
	p := &Program{
		Pkgs:        pkgs,
		Funcs:       make(map[*types.Func]*Func),
		targets:     make(map[*ast.CallExpr][]*Func),
		implCache:   make(map[string][]*Func),
		CondBinding: make(map[LockKey]LockKey),
	}
	// Pass 1: function nodes and module-defined named types.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{Obj: obj, Decl: fd, Pkg: pkg}
				p.Funcs[obj] = fn
				p.funcs = append(p.funcs, fn)
			}
		}
		if pkg.Pkg == nil {
			continue
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				p.named = append(p.named, named)
			}
		}
	}
	sort.Slice(p.funcs, func(i, j int) bool { return p.funcs[i].Decl.Pos() < p.funcs[j].Decl.Pos() })
	sort.Slice(p.named, func(i, j int) bool { return p.named[i].Obj().Pos() < p.named[j].Obj().Pos() })

	// Pass 2: resolve every call site; record the synchronous subset on
	// each function for summary propagation.
	for _, fn := range p.funcs {
		p.collectCalls(fn)
	}

	// Pass 3: summaries — direct facts, then propagation to fixpoint.
	for _, fn := range p.funcs {
		p.computeDirect(fn)
	}
	p.propagate()

	// Pass 4: condition-variable bindings.
	for _, pkg := range pkgs {
		collectCondBindings(pkg, p.CondBinding)
	}
	return p
}

// collectCondBindings records, for every `<lhs> = sync.NewCond(<arg>)`
// assignment or declaration in the package, the abstract key of the cond
// holder and of the lock it wraps.
func collectCondBindings(pkg *lint.Package, out map[LockKey]LockKey) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var lhs, rhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				lhs, rhs = n.Lhs, n.Rhs
			case *ast.ValueSpec:
				for _, name := range n.Names {
					lhs = append(lhs, name)
				}
				rhs = n.Values
			default:
				return true
			}
			for i, r := range rhs {
				if i >= len(lhs) {
					break
				}
				call, ok := ast.Unparen(r).(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					continue
				}
				fnSel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || fnSel.Sel.Name != "NewCond" {
					continue
				}
				obj, ok := pkg.Info.Uses[fnSel.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
					continue
				}
				arg := ast.Unparen(call.Args[0])
				if ue, ok := arg.(*ast.UnaryExpr); ok {
					arg = ue.X
				}
				condKey := exprLockKey(pkg, lhs[i])
				lockKey := exprLockKey(pkg, arg)
				if condKey.Global() && lockKey.Global() {
					out[condKey] = lockKey
				}
			}
			return true
		})
	}
}

// SortedFuncs returns every function in deterministic source order.
func (p *Program) SortedFuncs() []*Func { return p.funcs }

// TargetsOf returns the module-internal candidate callees of a call
// expression anywhere in the module (nil for stdlib calls, builtins, and
// unresolvable function values).
func (p *Program) TargetsOf(call *ast.CallExpr) []*Func { return p.targets[call] }

// collectCalls walks fn's body resolving all calls, and records the
// synchronous ones (reached on fn's own goroutine) in fn.Calls.
func (p *Program) collectCalls(fn *Func) {
	all := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if ts := p.resolve(fn.Pkg, call); ts != nil {
					p.targets[call] = ts
				}
			}
			return true
		})
	}
	all(fn.Decl.Body)
	WalkSync(fn.Decl.Body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if ts := p.targets[call]; ts != nil {
				fn.Calls = append(fn.Calls, Call{Site: call, Targets: ts})
			}
		}
	})
}

// resolve maps one call expression to its module-internal candidates.
func (p *Program) resolve(pkg *lint.Package, call *ast.CallExpr) []*Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return p.funcFor(obj)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if types.IsInterface(recv) {
				return p.implementersOf(recv, fun.Sel.Name)
			}
			if obj, ok := sel.Obj().(*types.Func); ok {
				return p.funcFor(obj)
			}
			return nil
		}
		// Package-qualified call, pkg.F(...).
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return p.funcFor(obj)
		}
	}
	return nil
}

func (p *Program) funcFor(obj *types.Func) []*Func {
	if fn, ok := p.Funcs[obj]; ok {
		return []*Func{fn}
	}
	return nil
}

// implementersOf resolves interface dispatch by method sets: every
// module-defined named type (or its pointer) implementing the interface
// contributes its method as a candidate target.
func (p *Program) implementersOf(ifaceType types.Type, method string) []*Func {
	iface, ok := ifaceType.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := types.TypeString(ifaceType, nil) + "." + method
	if ts, ok := p.implCache[key]; ok {
		return ts
	}
	var out []*Func
	seen := make(map[*Func]bool)
	for _, named := range p.named {
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, named.Obj().Pkg(), method)
		if m, ok := obj.(*types.Func); ok {
			if fn, ok := p.Funcs[m]; ok && !seen[fn] {
				seen[fn] = true
				out = append(out, fn)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	p.implCache[key] = out
	return out
}

// WalkSync visits the nodes executed on the function's own goroutine, in
// source order: it skips the bodies of go statements entirely and the
// bodies of function literals that are merely constructed (assigned,
// passed, stored) rather than immediately invoked or deferred. Facts a
// summary derives from the visited nodes are therefore things the
// function itself may do when called.
func WalkSync(root ast.Node, visit func(n ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := true
		switch n := n.(type) {
		case *ast.GoStmt:
			descend = false
		case *ast.FuncLit:
			if len(stack) > 0 {
				if call, ok := stack[len(stack)-1].(*ast.CallExpr); !ok || call.Fun != n {
					descend = false
				}
			} else {
				descend = false
			}
		}
		visit(n)
		if !descend {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
