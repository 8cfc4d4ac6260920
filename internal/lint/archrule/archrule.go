// Package archrule enforces the module's layering DAG at lint time. The
// feed stack only stays correct while the dataflow engine (hyracks),
// storage (lsm/storage), and the feed runtime (core) own their layers and
// never reach around each other; archrule turns that discipline into a
// declarative, import-graph-checked rule table.
package archrule

import (
	"go/ast"
	"go/types"
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
	return "layering DAG: module-internal imports must follow the architecture rule table"
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
			// Only module-internal edges are architecture edges.
			if path != pkg.Module && !strings.HasPrefix(path, pkg.Module+"/") {
				continue
			}
			for _, rule := range a.Rules {
				if !lint.MatchPath(rule.Pkg, pkg.Path) {
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
	}
	return out
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
