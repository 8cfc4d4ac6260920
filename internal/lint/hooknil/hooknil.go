// Package hooknil enforces the nil-safe hook contract interprocedurally:
// every call through an optional hook field (lsm.Options.FaultHook,
// hyracks.Config.FrameFault, core.Options.Registry's gauge funcs, …)
// must be dominated by a nil check, or live inside a function declared as
// a nil-safe wrapper.
//
// A func-typed struct field counts as *optional* when the module itself
// treats it as such — it is compared against nil somewhere (directly or
// through a local copy). Mandatory callbacks that no code nil-checks are
// left alone. The interprocedural part is parameter tracking: passing an
// unchecked hook into a helper taints the helper's parameter, and any
// unguarded call of a tainted parameter is reported at the dereference,
// however many calls deep — the exact shape feedlint's single-function
// checks could not see.
//
// Wrapper declaration: a function whose doc comment (or a line inside
// it) carries `//feedlint:nilsafe` may call hooks and tainted parameters
// unguarded; it is the declared owner of the nil contract. The analyzer
// also accepts a per-package wrapper table via New.
package hooknil

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"asterixfeeds/internal/lint"
	"asterixfeeds/internal/lint/ipa"
)

// nilsafeDirective marks a declared nil-safe wrapper function.
const nilsafeDirective = "//feedlint:nilsafe"

// Analyzer implements lint.ModuleAnalyzer.
type Analyzer struct {
	// Wrappers maps package patterns (lint.MatchPath) to function names
	// treated as declared nil-safe wrappers, in addition to functions
	// carrying the //feedlint:nilsafe directive.
	Wrappers map[string][]string
}

// New returns a hooknil analyzer with the given per-package wrapper
// table (nil is fine: the directive still works).
func New(wrappers map[string][]string) *Analyzer { return &Analyzer{Wrappers: wrappers} }

// Name implements lint.Analyzer.
func (*Analyzer) Name() string { return "hooknil" }

// Doc implements lint.Analyzer.
func (*Analyzer) Doc() string {
	return "calls through optional hook fields must be nil-checked, even across helper calls"
}

// hookField identifies an optional func-typed struct field.
type fieldKey struct {
	owner string // qualified defining type
	name  string
}

func (k fieldKey) String() string {
	owner := k.owner
	if i := strings.LastIndexByte(owner, '/'); i >= 0 {
		owner = owner[i+1:]
	}
	return owner + "." + k.name
}

type checker struct {
	prog     *ipa.Program
	analyzer *Analyzer
	// optional is the module-wide set of func-typed struct fields with
	// nil-check evidence, keyed by the field object.
	optional map[*types.Var]fieldKey
	// nilsafe marks declared wrapper functions.
	nilsafe map[*ipa.Func]bool

	// paramCalls records unguarded calls of func-typed parameters:
	// findings-in-waiting, confirmed if the parameter turns out tainted.
	paramCalls []paramCall
	// taints records maybe-nil arguments flowing into parameters.
	taints []taint
	// paramsOf caches signature params per function.
	findings []lint.Finding
}

type paramCall struct {
	fn   *ipa.Func
	idx  int
	pos  token.Position
	name string
}

// taint is one call edge passing a maybe-nil hook value into a parameter.
type taint struct {
	target *ipa.Func
	idx    int
	// viaParam: the argument was itself a parameter of the caller (taint
	// propagates only if that parameter is tainted); otherwise the
	// argument was an unchecked hook field.
	caller    *ipa.Func
	callerIdx int
	viaParam  bool
	field     fieldKey // valid when !viaParam
	pos       token.Position
}

// RunModule implements lint.ModuleAnalyzer.
func (a *Analyzer) RunModule(pkgs []*lint.Package) []lint.Finding {
	prog := ipa.For(pkgs)
	c := &checker{prog: prog, analyzer: a, optional: collectOptionalFields(pkgs), nilsafe: make(map[*ipa.Func]bool)}
	for _, fn := range prog.SortedFuncs() {
		if c.isDeclaredNilsafe(fn) {
			c.nilsafe[fn] = true
		}
	}
	for _, fn := range prog.SortedFuncs() {
		c.checkFunc(fn)
	}
	c.resolveTaints()
	return c.findings
}

// collectOptionalFields finds every func-typed struct field the module
// nil-checks anywhere, directly (x.F == nil) or through a local copy
// (f := x.F; f != nil), plus fields explicitly assigned nil.
func collectOptionalFields(pkgs []*lint.Package) map[*types.Var]fieldKey {
	optional := make(map[*types.Var]fieldKey)
	mark := func(pkg *lint.Package, e ast.Expr) {
		if v, key, ok := hookFieldAt(pkg, e); ok {
			optional[v] = key
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			// origins maps local variable objects to the hook-field
			// expression they were last assigned from, file-wide; scoping
			// is approximated, which only ever widens the optional set.
			origins := make(map[types.Object]ast.Expr)
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i >= len(n.Rhs) {
							break
						}
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						obj := pkg.Info.Defs[id]
						if obj == nil {
							obj = pkg.Info.Uses[id]
						}
						if obj == nil {
							continue
						}
						if _, _, ok := hookFieldAt(pkg, n.Rhs[i]); ok {
							origins[obj] = n.Rhs[i]
						}
					}
				case *ast.BinaryExpr:
					if n.Op != token.EQL && n.Op != token.NEQ {
						return true
					}
					for _, pair := range [][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
						if isNil(pkg, pair[1]) {
							mark(pkg, pair[0])
							if id, ok := ast.Unparen(pair[0]).(*ast.Ident); ok {
								if origin, ok := origins[pkg.Info.Uses[id]]; ok {
									mark(pkg, origin)
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	return optional
}

// hookFieldAt reports whether e reads a func-typed struct field, and its
// identity.
func hookFieldAt(pkg *lint.Package, e ast.Expr) (*types.Var, fieldKey, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, fieldKey{}, false
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil, fieldKey{}, false
	}
	v, ok := selection.Obj().(*types.Var)
	if !ok {
		return nil, fieldKey{}, false
	}
	if _, ok := v.Type().Underlying().(*types.Signature); !ok {
		return nil, fieldKey{}, false
	}
	owner := "?"
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok {
		owner = n.Obj().Name()
		if n.Obj().Pkg() != nil {
			owner = n.Obj().Pkg().Path() + "." + owner
		}
	}
	return v, fieldKey{owner: owner, name: v.Name()}, true
}

func isNil(pkg *lint.Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.IsNil()
}

func (c *checker) isDeclaredNilsafe(fn *ipa.Func) bool {
	if fn.Decl.Doc != nil {
		for _, l := range fn.Decl.Doc.List {
			if strings.HasPrefix(strings.TrimSpace(l.Text), nilsafeDirective) {
				return true
			}
		}
	}
	for pat, names := range c.analyzer.Wrappers {
		if lint.MatchPath(pat, fn.Pkg.Path) {
			for _, name := range names {
				if fn.Obj.Name() == name {
					return true
				}
			}
		}
	}
	return false
}

// state is the per-path guard state: which expressions (by canonical
// text) and which local objects are proven non-nil here.
type state struct {
	text map[string]bool
	obj  map[types.Object]bool
	// origin maps local objects to the hook field they alias.
	origin map[types.Object]*types.Var
}

func newState() *state {
	return &state{text: map[string]bool{}, obj: map[types.Object]bool{}, origin: map[types.Object]*types.Var{}}
}

func (st *state) clone() *state {
	c := newState()
	for k, v := range st.text {
		c.text[k] = v
	}
	for k, v := range st.obj {
		c.obj[k] = v
	}
	for k, v := range st.origin {
		c.origin[k] = v
	}
	return c
}

// checkFunc walks one function, flagging unguarded hook-field calls and
// recording parameter facts for the taint fixpoint.
func (c *checker) checkFunc(fn *ipa.Func) {
	params := make(map[types.Object]int)
	if sig, ok := fn.Obj.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			if _, isFunc := sig.Params().At(i).Type().Underlying().(*types.Signature); isFunc {
				params[sig.Params().At(i)] = i
			}
		}
	}
	c.walkStmts(fn, fn.Decl.Body.List, newState(), params)
}

func (c *checker) walkStmts(fn *ipa.Func, stmts []ast.Stmt, st *state, params map[types.Object]int) {
	for _, s := range stmts {
		c.walkStmt(fn, s, st, params)
	}
}

func (c *checker) walkStmt(fn *ipa.Func, s ast.Stmt, st *state, params map[types.Object]int) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		c.walkExpr(fn, s.X, st, params)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.walkExpr(fn, e, st, params)
		}
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := fn.Pkg.Info.Defs[id]
			if obj == nil {
				obj = fn.Pkg.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			// Any assignment invalidates previous provenness.
			delete(st.obj, obj)
			delete(st.origin, obj)
			if i < len(s.Rhs) {
				if v, _, ok := hookFieldAt(fn.Pkg, s.Rhs[i]); ok {
					if _, optional := c.optional[v]; optional {
						st.origin[obj] = v
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.walkExpr(fn, e, st, params)
		}
	case *ast.IncDecStmt:
		c.walkExpr(fn, s.X, st, params)
	case *ast.SendStmt:
		c.walkExpr(fn, s.Chan, st, params)
		c.walkExpr(fn, s.Value, st, params)
	case *ast.GoStmt:
		c.walkExpr(fn, s.Call, st.clone(), params)
	case *ast.DeferStmt:
		c.walkExpr(fn, s.Call, st.clone(), params)
	case *ast.BlockStmt:
		c.walkStmts(fn, s.List, st.clone(), params)
	case *ast.IfStmt:
		inner := st.clone()
		if s.Init != nil {
			c.walkStmt(fn, s.Init, inner, params)
		}
		c.walkExpr(fn, s.Cond, inner, params)
		thenState := inner.clone()
		c.applyCond(fn, s.Cond, thenState, true)
		c.walkStmts(fn, s.Body.List, thenState, params)
		elseState := inner.clone()
		c.applyCond(fn, s.Cond, elseState, false)
		if s.Else != nil {
			c.walkStmt(fn, s.Else, elseState, params)
		}
		// `if x == nil { return }` proves x for the rest of the body.
		if terminates(s.Body) {
			c.applyCond(fn, s.Cond, st, false)
		}
	case *ast.ForStmt:
		inner := st.clone()
		if s.Init != nil {
			c.walkStmt(fn, s.Init, inner, params)
		}
		if s.Cond != nil {
			c.walkExpr(fn, s.Cond, inner, params)
			c.applyCond(fn, s.Cond, inner, true)
		}
		c.walkStmts(fn, s.Body.List, inner, params)
	case *ast.RangeStmt:
		c.walkExpr(fn, s.X, st, params)
		c.walkStmts(fn, s.Body.List, st.clone(), params)
	case *ast.LabeledStmt:
		c.walkStmt(fn, s.Stmt, st, params)
	case *ast.SwitchStmt:
		inner := st.clone()
		if s.Init != nil {
			c.walkStmt(fn, s.Init, inner, params)
		}
		if s.Tag != nil {
			c.walkExpr(fn, s.Tag, inner, params)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(fn, cc.Body, inner.clone(), params)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				c.walkStmts(fn, cc.Body, st.clone(), params)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				if cc.Comm != nil {
					c.walkStmt(fn, cc.Comm, st.clone(), params)
				}
				c.walkStmts(fn, cc.Body, st.clone(), params)
			}
		}
	}
}

// applyCond folds a condition into the guard state. branch=true is the
// then-branch: `x != nil` (and conjunctions of such) prove x there.
// branch=false is the else/fallthrough side: `x == nil` (and
// disjunctions) prove x there.
func (c *checker) applyCond(fn *ipa.Func, cond ast.Expr, st *state, branch bool) {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			if branch {
				c.applyCond(fn, e.X, st, true)
				c.applyCond(fn, e.Y, st, true)
			}
			return
		case token.LOR:
			if !branch {
				c.applyCond(fn, e.X, st, false)
				c.applyCond(fn, e.Y, st, false)
			}
			return
		case token.NEQ, token.EQL:
			want := token.NEQ
			if !branch {
				want = token.EQL
			}
			if e.Op != want {
				return
			}
			for _, pair := range [][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
				if isNil(fn.Pkg, pair[1]) {
					c.prove(fn, pair[0], st)
				}
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			c.applyCond(fn, e.X, st, !branch)
		}
	}
}

func (c *checker) prove(fn *ipa.Func, e ast.Expr, st *state) {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if obj := fn.Pkg.Info.Uses[id]; obj != nil {
			st.obj[obj] = true
			return
		}
	}
	st.text[types.ExprString(e)] = true
}

// terminates reports whether a block always leaves the enclosing scope
// (return, panic, os.Exit, continue, break, goto).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				return fun.Sel.Name == "Exit" || fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Goexit"
			}
		}
	}
	return false
}

// walkExpr checks calls inside one expression, in evaluation order.
func (c *checker) walkExpr(fn *ipa.Func, e ast.Expr, st *state, params map[types.Object]int) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closure bodies run with unknown guard state; analyze
			// conservatively from scratch (fields proven outside may have
			// changed by call time).
			c.walkStmts(fn, n.Body.List, newState(), params)
			return false
		case *ast.CallExpr:
			c.checkCall(fn, n, st, params)
			for _, arg := range n.Args {
				c.walkExpr(fn, arg, st, params)
			}
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				c.walkStmts(fn, lit.Body.List, newState(), params)
			}
			return false
		}
		return true
	})
}

// checkCall inspects one call: a call *through* a hook value must be
// guarded; a call *passing* hook values taints the callee's parameters.
func (c *checker) checkCall(fn *ipa.Func, call *ast.CallExpr, st *state, params map[types.Object]int) {
	pos := fn.Pkg.Fset.Position(call.Pos())
	funExpr := ast.Unparen(call.Fun)

	// Call through a hook field: x.F(...).
	if v, key, ok := hookFieldAt(fn.Pkg, funExpr); ok {
		if _, optional := c.optional[v]; optional && !c.nilsafe[fn] {
			if !st.text[types.ExprString(funExpr)] {
				c.findings = append(c.findings, lint.Finding{
					Pos:  pos,
					Rule: "hooknil",
					Message: fmt.Sprintf("call through optional hook field %s is not nil-checked on this path; guard it or declare a %s wrapper",
						key, nilsafeDirective),
				})
			}
		}
	}

	// Call through a local or parameter: f(...).
	if id, ok := funExpr.(*ast.Ident); ok {
		obj := fn.Pkg.Info.Uses[id]
		if obj != nil && !st.obj[obj] && !c.nilsafe[fn] {
			if origin, ok := st.origin[obj]; ok {
				key := c.optional[origin]
				c.findings = append(c.findings, lint.Finding{
					Pos:  pos,
					Rule: "hooknil",
					Message: fmt.Sprintf("call through %s (copy of optional hook field %s) is not nil-checked on this path",
						id.Name, key),
				})
			} else if idx, isParam := params[obj]; isParam {
				c.paramCalls = append(c.paramCalls, paramCall{fn: fn, idx: idx, pos: pos, name: id.Name})
			}
		}
	}

	// Arguments: hook fields or func params flowing into callees.
	targets := c.prog.TargetsOf(call)
	if len(targets) == 0 {
		return
	}
	for j, arg := range call.Args {
		argE := ast.Unparen(arg)
		if v, key, ok := hookFieldAt(fn.Pkg, argE); ok {
			if _, optional := c.optional[v]; optional && !st.text[types.ExprString(argE)] {
				for _, target := range targets {
					c.taints = append(c.taints, taint{target: target, idx: j, field: key, pos: pos})
				}
			}
			continue
		}
		if id, ok := argE.(*ast.Ident); ok {
			obj := fn.Pkg.Info.Uses[id]
			if obj == nil || st.obj[obj] {
				continue
			}
			if origin, ok := st.origin[obj]; ok {
				key := c.optional[origin]
				for _, target := range targets {
					c.taints = append(c.taints, taint{target: target, idx: j, field: key, pos: pos})
				}
			} else if idx, isParam := params[obj]; isParam {
				for _, target := range targets {
					c.taints = append(c.taints, taint{target: target, idx: j, caller: fn, callerIdx: idx, viaParam: true, pos: pos})
				}
			}
		}
	}
}

// resolveTaints runs the maybe-nil fixpoint over parameter taints and
// converts unguarded calls of tainted parameters into findings.
func (c *checker) resolveTaints() {
	type pk struct {
		fn  *ipa.Func
		idx int
	}
	tainted := make(map[pk]fieldKey)
	for changed := true; changed; {
		changed = false
		for _, t := range c.taints {
			key := pk{t.target, t.idx}
			if _, ok := tainted[key]; ok {
				continue
			}
			if !t.viaParam {
				tainted[key] = t.field
				changed = true
			} else if field, ok := tainted[pk{t.caller, t.callerIdx}]; ok {
				tainted[key] = field
				changed = true
			}
		}
	}
	for _, pc := range c.paramCalls {
		if c.nilsafe[pc.fn] {
			continue
		}
		if field, ok := tainted[pk{pc.fn, pc.idx}]; ok {
			c.findings = append(c.findings, lint.Finding{
				Pos:  pc.pos,
				Rule: "hooknil",
				Message: fmt.Sprintf("parameter %s may be nil (receives optional hook field %s from a caller) and is called without a nil check",
					pc.name, field),
			})
		}
	}
	sort.Slice(c.findings, func(i, j int) bool {
		a, b := c.findings[i], c.findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
}
