// Package archrule enforces the module's layering DAG at lint time. The
// feed stack only stays correct while the dataflow engine (hyracks),
// storage (lsm/storage), and the feed runtime (core) own their layers and
// never reach around each other; archrule turns that discipline into a
// declarative, import-graph-checked rule table. The same table holds the
// guards that keep a deleted mechanism from coming back: a declaration,
// reference, import or waiver refused in a package or file.
package archrule

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"asterixfeeds/internal/lint"
)

// Rule constrains the module-internal imports of packages matching Pkg.
// Patterns match at path-segment boundaries (see lint.MatchPath); "*"
// matches every package.
type Rule struct {
	// Pkg selects the packages this rule governs.
	Pkg string
	// Allow, when non-nil, is the exhaustive whitelist of module-internal
	// imports; anything else is a violation. An empty (non-nil) list
	// forbids all internal imports.
	Allow []string
	// Deny lists imports that are violations regardless of Allow.
	Deny []string
	// Restrict narrows a permitted import to an explicit symbol surface:
	// the key selects an imported package (same pattern syntax as Allow),
	// the value lists the only identifiers of that package the governed
	// packages may reference. Importing the package stays legal; reaching
	// past the listed surface is a violation.
	Restrict map[string][]string

	// The fields below make a rule a guard: they keep a deleted
	// mechanism from coming back, and each finding prints Msg and what it
	// found. File narrows the guard to the package file of that base name,
	// Funcs narrows Uses to those functions' bodies.
	File  string
	Funcs []string
	// Decls are names the code must not declare at any level: "name",
	// "prefix*", or "Type.method".
	Decls []string
	// Uses are objects the code must not reference: "path.Name" or
	// "path.Type.Method", path being a stdlib import path or a
	// module-relative one. "path.Name(pkg.Iface)" refuses only calls whose
	// first argument's type implements that interface.
	Uses []string
	// Waivers are rules whose //feedlint:allow directive must not appear.
	Waivers []string
	Msg     string
}

// DefaultRules is the asterixfeeds layering table:
//
//   - internal/adm (the data model) sits at the bottom: no internal imports
//   - internal/metrics is self-contained leaf infrastructure: it may be
//     imported from any layer (lsm, hyracks, core) without creating an
//     architecture edge, and imports nothing internal itself
//   - internal/lsm may import only adm and metrics
//   - internal/storage may import only adm, lsm, and metrics
//   - internal/hyracks (the dataflow engine) may import only metrics and,
//     in particular, must never import the feed runtime in internal/core
//     (each node counts its own frame traffic in metrics counters)
//   - internal/metadata may import only adm, lsm, and storage
//   - internal/core (the feed runtime) must not reach up into the query
//     layer (aql), the experiment harness, or the module root: the HTTP
//     admin/console layer lives in the root package, strictly above core
//   - nothing imports cmd/ binaries
//
// The pattern "." denotes the module root package (the HTTP/console layer).
var DefaultRules = []Rule{
	{Pkg: "internal/adm", Allow: []string{}},
	{Pkg: "internal/lsm", Allow: []string{"internal/adm", "internal/metrics"}},
	{Pkg: "internal/storage", Allow: []string{"internal/adm", "internal/lsm", "internal/metrics"}},
	{Pkg: "internal/hyracks", Allow: []string{"internal/metrics"}, Deny: []string{"internal/core"}},
	{Pkg: "internal/metrics", Allow: []string{}},
	// The governor is leaf infrastructure like metrics: every layer may
	// consult it (core gates admission, the root wires budgets), but it must
	// not know about any of them — byte sources and pressure signals arrive
	// as injected closures, never as upward imports.
	{Pkg: "internal/governor", Allow: []string{"internal/metrics"}},
	{Pkg: "internal/metadata", Allow: []string{"internal/adm", "internal/lsm", "internal/storage"}},
	{Pkg: "internal/core", Deny: []string{"internal/aql", "internal/experiments", "."}},
	// The chaos harness observes the LSM strictly through its fault-hook
	// surface (Options/FaultHook wiring, the injection sentinels, Open for
	// content digests) and the counters a node publishes (Metrics, which the
	// governor it exercises is wired over). Reaching into anything else would
	// let invariant checks depend on internals the faults are supposed to
	// stress.
	{Pkg: "internal/chaos", Deny: []string{"internal/aql", "internal/experiments", "."},
		Restrict: map[string][]string{
			"internal/lsm": {"Options", "FaultHook", "Tree", "Open", "Metrics",
				"ErrInjected", "ErrTornWrite", "ErrCorruptRead"},
		}},
	{Pkg: "*", Deny: []string{"cmd"}},

	// Guards. Each row keeps a mechanism a commit deleted from coming
	// back; its comment is the reason, its Msg what a finding prints.
	//
	// One checker per lock rule: go vet owns lock copies, lockorder a lock
	// held into a send at every call depth, and the loader resolves stdlib
	// imports one way (from source).
	{Pkg: "internal/lint", Deny: []string{"internal/lint/mutexcheck"}, Decls: []string{"FastStd", "fastStd"},
		Msg: "a second lock checker or stdlib importer is back in feedlint"},
	{Pkg: "cmd/feedlint", Deny: []string{"internal/lint/mutexcheck"}, Decls: []string{"FastStd", "fastStd"},
		Msg: "a second lock checker or stdlib importer is back in feedlint"},
	// The background flush/compaction pipeline does no disk I/O under the
	// tree lock, so the LSM needs no lockorder waiver.
	{Pkg: "internal/lsm", Waivers: []string{"lockorder"}, Msg: "lockorder suppressions found in internal/lsm"},
	// Frames and feed buffers are garbage-collected: the header pool
	// recycled nothing on the feed path and cost three ownership rules.
	// An Ablations row from interleaved bench/run.sh pairs lifts this.
	{Pkg: "internal/hyracks", Uses: []string{"sync.Pool"}, Msg: "sync.Pool is back under internal/hyracks or internal/core"},
	{Pkg: "internal/core", Uses: []string{"sync.Pool"}, Msg: "sync.Pool is back under internal/hyracks or internal/core"},
	// The governor sums atomic loads and holds no cache, so it has no use
	// for a clock; the same proof lifts this.
	{Pkg: "internal/governor", File: "governor.go", Deny: []string{"time"}, Msg: `internal/governor/governor.go imports "time" again`},
	// Textual ADM has one reader, Transcode; Parse is DecodeOne of its
	// output, and the recursive-descent parser is only a test oracle.
	{Pkg: "internal/adm", Decls: []string{"parser"}, Msg: "a second reader of textual ADM is back in internal/adm"},
	{Pkg: "internal/adm", File: "transcode.go", Uses: []string{"internal/adm.Parse"}, Msg: "a second reader of textual ADM is back in internal/adm"},
	// Binary ADM has one checker, SkipValue; every other reader takes its
	// verdict.
	{Pkg: "internal/adm", Decls: []string{"errValidateFallback", "validateDecoded", "appendWithFieldDecoded", "canonicalLen"},
		Msg: "a second checker of binary ADM is back in internal/adm"},
	// A stored record is walked once: RecordType.ValidateFields checks
	// it, applies the type and hands the store its fields.
	{Pkg: "internal/adm", Decls: []string{"scanConforming", "conforms"}, Msg: "a second walk over a stored record is back"},
	{Pkg: "internal/storage", Uses: []string{"internal/adm.ValidateEncoded", "internal/adm.RecordType.ValidateEncoded"},
		Msg: "a second walk over a stored record is back"},
	// A decode builds its value once, from slabs its check walk sized.
	{Pkg: "internal/adm", Decls: []string{"decode*"}, Msg: "a second decode builder is back in internal/adm"},
	{Pkg: "internal/adm", File: "binary.go", Funcs: []string{"Decode", "DecodeOne"}, Uses: []string{"internal/adm.checkOne"},
		Msg: "a second decode builder is back in internal/adm"},
	// Upserts write blind; reading the replaced version to unhook its
	// entries brings back the retry that does not converge.
	{Pkg: "internal/storage", Decls: []string{"unhookStored", "linkRepeats"}, Msg: "the read-before-write upsert is back in internal/storage"},
	// A socket frame leaves when its source pauses: the adaptor scans its
	// connection through pauseReader.
	{Pkg: "internal/core", File: "adaptor.go", Uses: []string{"bufio.NewScanner(net.Conn)"},
		Msg: "the socket adaptor scans its connection without the pause reader"},
	// An intake is one goroutine looping on Subscription.Next.
	{Pkg: "internal/core", Decls: []string{"replayCh", "drainPendingReplays", "pumpDone"},
		Msg: "the intake's pump, replay channel or ack poll is back in internal/core"},
	// Every writer of a partition opens it, and its replica, through
	// core.OpenStoreTarget by the task's partition index.
	{Pkg: ".", Uses: []string{"internal/storage.Manager.OpenPartition"}, Msg: "a root-package writer opens its partition with OpenPartition again"},
	// An acked write has left the process: the WAL writes each batch
	// straight to its segment file.
	{Pkg: "internal/lsm", File: "wal.go", Uses: []string{"bufio.NewWriter", "bufio.NewWriterSize"},
		Msg: "a buffered WAL writer or its seal is back in internal/lsm"},
	{Pkg: "internal/lsm", Decls: []string{"seal"}, Msg: "a buffered WAL writer or its seal is back in internal/lsm"},
	// A key has one filter, asked with the one hash a read takes.
	{Pkg: "internal/lsm", Decls: []string{"bloomFilter", "unmarshalBloom", "h1", "h2"},
		Msg: "a second key filter or its second hash is back in internal/lsm"},
	// A block read pins the block and releases it, through run.pinBlock.
	{Pkg: "internal/lsm", Decls: []string{"BlockCache.put", "run.readBlock"}, Msg: "a second block-read rule is back in internal/lsm"},
	// A metric enters the registry one way: its owner registers it.
	{Pkg: "internal/metrics", Decls: []string{"Registry.Counter", "Registry.Gauge", "Registry.Window", "Registry.Latency"},
		Msg: "a get-or-create getter is back on the metrics registry"},
	// Nothing listened to the job lifecycle: a job's end is its Wait.
	{Pkg: "internal/hyracks", Decls: []string{"Cluster.SubscribeJobs", "JobEvent"}, Msg: "the job-event bus is back in internal/hyracks"},
	// Adaptors are registered with the feed runtime, core.AdaptorRegistry.
	{Pkg: "internal/metadata", Decls: []string{"AdapterDecl", "Catalog.RegisterAdaptor"},
		Msg: "a second adaptor registry is back in internal/metadata"},
	// The console serves the one feed snapshot, core.FeedActivity.
	{Pkg: ".", Decls: []string{"FeedStatus"}, Msg: "a second feed snapshot is back in the console"},
}

// Analyzer checks each package's imports against a rule table.
type Analyzer struct {
	Rules []Rule
}

// New returns an archrule analyzer over the given table, defaulting to
// DefaultRules.
func New(rules []Rule) *Analyzer {
	if rules == nil {
		rules = DefaultRules
	}
	return &Analyzer{Rules: rules}
}

// Name implements lint.Analyzer.
func (*Analyzer) Name() string { return "archrule" }

// Doc implements lint.Analyzer.
func (*Analyzer) Doc() string {
	return "layering DAG and guards: imports, declarations and references must follow the architecture rule table"
}

// Run implements lint.Analyzer.
func (a *Analyzer) Run(pkg *lint.Package) []lint.Finding {
	var out []lint.Finding
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			// Only module-internal edges are architecture edges; a guard
			// may refuse any import.
			internal := path == pkg.Module || strings.HasPrefix(path, pkg.Module+"/")
			for _, rule := range a.Rules {
				if !rule.governs(pkg, file) || (!internal && rule.Msg == "") {
					continue
				}
				if msg := rule.check(pkg, path); msg != "" {
					out = append(out, lint.Finding{
						Pos:     pkg.Fset.Position(imp.Pos()),
						Rule:    "archrule",
						Message: msg,
					})
					break // one finding per import is enough
				}
			}
		}
	}
	for _, rule := range a.Rules {
		if rule.Restrict != nil && lint.MatchPath(rule.Pkg, pkg.Path) {
			out = append(out, rule.checkRestrict(pkg)...)
		}
		if rule.Msg != "" && pkg.Info != nil {
			for _, file := range pkg.Files {
				if rule.governs(pkg, file) {
					out = append(out, rule.checkGuard(pkg, file)...)
				}
			}
		}
	}
	return out
}

// governs reports whether file of pkg is in the rule's scope. The pattern
// "." is the module root package.
func (r Rule) governs(pkg *lint.Package, file *ast.File) bool {
	if r.Pkg == "." {
		if pkg.Path != pkg.Module {
			return false
		}
	} else if !lint.MatchPath(r.Pkg, pkg.Path) {
		return false
	}
	return r.File == "" || filepath.Base(pkg.Fset.Position(file.Pos()).Filename) == r.File
}

// checkGuard reports the declarations, references and waivers of file
// that the guard refuses.
func (r Rule) checkGuard(pkg *lint.Package, file *ast.File) []lint.Finding {
	var out []lint.Finding
	report := func(pos token.Pos, what string) {
		out = append(out, lint.Finding{Pos: pkg.Fset.Position(pos), Rule: "archrule", Message: r.Msg + ": " + what})
	}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			for _, rule := range lint.AllowedRules(c.Text) {
				if contains(r.Waivers, rule) {
					report(c.Pos(), "//feedlint:allow "+rule)
				}
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pkg.Info.Defs[id]; obj != nil && len(r.Decls) > 0 {
			name, qual := id.Name, qualifiedName(obj)
			for _, d := range r.Decls {
				if matchName(d, name) || matchName(d, qual) {
					report(id.Pos(), "declares "+qual)
					break
				}
			}
		}
		return true
	})
	if len(r.Uses) == 0 {
		return out
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); len(r.Funcs) > 0 && (!ok || !contains(r.Funcs, fd.Name.Name)) {
			continue
		}
		ast.Inspect(d, func(n ast.Node) bool {
			var id *ast.Ident
			call, isCall := n.(*ast.CallExpr)
			if isCall {
				id = calleeIdent(call.Fun)
			} else {
				id, _ = n.(*ast.Ident)
			}
			obj := pkg.Info.Uses[id]
			if id == nil || obj == nil || obj.Pkg() == nil {
				return true
			}
			key := strings.TrimPrefix(obj.Pkg().Path(), pkg.Module+"/") + "." + qualifiedName(obj)
			for _, u := range r.Uses {
				// A use with an argument type is checked at its call, any
				// other at its identifier.
				base, iface, hasArg := strings.Cut(strings.TrimSuffix(u, ")"), "(")
				if base != key || hasArg != isCall {
					continue
				}
				if hasArg && (len(call.Args) == 0 || !implements(pkg, pkg.Info.Types[call.Args[0]].Type, iface)) {
					continue
				}
				report(n.Pos(), "uses "+u)
			}
			return true
		})
	}
	return out
}

// calleeIdent is the identifier naming a call's function, if any.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	}
	return nil
}

// qualifiedName is obj's name, prefixed with its receiver's type name for
// a method.
func qualifiedName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Name()
}

// matchName matches a Decls entry: an exact name or a "prefix*".
func matchName(pattern, name string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return pattern == name
}

// implements reports whether t implements the interface named "path.Name"
// among pkg's imports.
func implements(pkg *lint.Package, t types.Type, iface string) bool {
	path, name, _ := strings.Cut(iface, ".")
	if t == nil {
		return false
	}
	for _, imp := range pkg.Pkg.Imports() {
		if imp.Path() != path {
			continue
		}
		if obj, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := obj.Type().Underlying().(*types.Interface); ok {
				return types.Implements(t, it)
			}
		}
	}
	return false
}

// checkRestrict reports every reference from pkg into a Restrict-ed
// import that names an identifier outside the declared surface. Needs
// type information (to tell a package qualifier from a shadowing local);
// when it is missing the check degrades to silence, like the other
// type-dependent analyzers.
func (r Rule) checkRestrict(pkg *lint.Package) []lint.Finding {
	if pkg.Info == nil {
		return nil
	}
	var out []lint.Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pkg.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			imported := pn.Imported().Path()
			for pat, allowed := range r.Restrict {
				if !lint.MatchPath(pat, imported) {
					continue
				}
				if contains(allowed, sel.Sel.Name) {
					continue
				}
				surface := append([]string(nil), allowed...)
				sort.Strings(surface)
				out = append(out, lint.Finding{
					Pos:  pkg.Fset.Position(sel.Pos()),
					Rule: "archrule",
					Message: pkg.RelPath() + " may use only {" + strings.Join(surface, ", ") + "} of " +
						strings.TrimPrefix(imported, pkg.Module+"/") + ", got " + sel.Sel.Name,
				})
			}
			return true
		})
	}
	return out
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// check reports a non-empty violation message when importing path from a
// package governed by r breaks the rule.
func (r Rule) check(pkg *lint.Package, path string) string {
	rel := strings.TrimPrefix(path, pkg.Module+"/")
	if matchImport(r.Deny, pkg.Module, path) {
		if r.Msg != "" {
			return r.Msg + ": imports " + rel
		}
		return pkg.RelPath() + " must not import " + rel
	}
	if r.Allow != nil && !matchImport(r.Allow, pkg.Module, path) {
		if len(r.Allow) == 0 {
			return pkg.RelPath() + " must not import any internal package, got " + rel
		}
		return pkg.RelPath() + " may import only {" + strings.Join(r.Allow, ", ") + "}, got " + rel
	}
	return ""
}

// matchImport matches an import path against rule patterns. The pattern "."
// matches exactly the module root package; a bare MatchPath on the module
// path would match every internal package too, which is never what a rule
// about the root layer means.
func matchImport(patterns []string, module, path string) bool {
	for _, p := range patterns {
		if p == "." {
			if path == module {
				return true
			}
			continue
		}
		if lint.MatchPath(p, path) {
			return true
		}
	}
	return false
}
