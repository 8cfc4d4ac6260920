package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the canonical "file:line: [rule] message"
// form used by cmd/feedlint and the fixture goldens.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// Analyzer is the common surface of every check. Concrete analyzers also
// implement PackageAnalyzer (independent per-package checks) or
// ModuleAnalyzer (whole-module checks needing the cross-package view, e.g.
// the interprocedural analyzers built on internal/lint/ipa).
type Analyzer interface {
	// Name is the rule id printed in findings, e.g. "archrule".
	Name() string
	// Doc is a one-line description shown by feedlint -list.
	Doc() string
}

// PackageAnalyzer is a check run over one package at a time; packages may
// be analyzed concurrently, so Run must not mutate analyzer state.
type PackageAnalyzer interface {
	Analyzer
	// Run reports violations found in pkg.
	Run(pkg *Package) []Finding
}

// ModuleAnalyzer is a check run once over the whole loaded module, for
// rules that cross package boundaries (call graphs, lock-order graphs).
type ModuleAnalyzer interface {
	Analyzer
	// RunModule reports violations found anywhere in pkgs.
	RunModule(pkgs []*Package) []Finding
}

// Package is one loaded, parsed, type-checked package handed to analyzers.
// Test files (*_test.go) are never included: feedlint guards production
// invariants, and tests legitimately use real clocks, drop errors, etc.
type Package struct {
	// Path is the full import path, e.g. "asterixfeeds/internal/core".
	Path string
	// Module is the module path from go.mod, e.g. "asterixfeeds".
	Module string
	// Dir is the absolute directory holding the package sources.
	Dir string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by filename.
	Files []*ast.File
	// Pkg is the type-checked package; non-nil even when TypeErrors is
	// not empty (go/types returns partial results).
	Pkg *types.Package
	// Info carries Types, Defs, Uses, and Selections for Files.
	Info *types.Info
	// TypeErrors collects soft type-check failures. Analyzers degrade to
	// syntactic checks when type information is missing.
	TypeErrors []error
}

// RelPath is Path with the module prefix stripped; the module root package
// itself becomes ".".
func (p *Package) RelPath() string {
	if p.Path == p.Module {
		return "."
	}
	return strings.TrimPrefix(p.Path, p.Module+"/")
}

// MatchPath reports whether pattern matches the import path at segment
// boundaries. A pattern like "internal/core" matches
// "asterixfeeds/internal/core" and any package beneath it
// ("asterixfeeds/internal/core/sub"), but not "internal/corelib".
func MatchPath(pattern, path string) bool {
	if pattern == "*" || pattern == path {
		return true
	}
	if strings.HasPrefix(path, pattern+"/") || strings.HasSuffix(path, "/"+pattern) {
		return true
	}
	return strings.Contains(path, "/"+pattern+"/")
}

// MatchAny reports whether any pattern matches path.
func MatchAny(patterns []string, path string) bool {
	for _, p := range patterns {
		if MatchPath(p, path) {
			return true
		}
	}
	return false
}

// allowDirective is the comment prefix suppressing a finding, as in
//
//	//feedlint:allow simclock -- canonical real-clock fallback
//
// A directive on the same line as the finding, or on a line directly above
// it, suppresses findings of that rule (or every rule, for "all").
const allowDirective = "//feedlint:allow"

// AllowSite is one rule named by a //feedlint:allow directive, kept so the
// audit can report directives that no longer suppress anything.
type AllowSite struct {
	// Pos locates the directive comment.
	Pos token.Position
	// Rule is one rule name the directive waives ("all" waives every rule).
	Rule string
	used bool
}

// suppressions maps file -> line -> rule name -> directive site.
type suppressions struct {
	byLine map[string]map[int]map[string]*AllowSite
	sites  []*AllowSite
}

func newSuppressions() *suppressions {
	return &suppressions{byLine: make(map[string]map[int]map[string]*AllowSite)}
}

func (s *suppressions) add(pos token.Position, rule string) {
	if s.byLine[pos.Filename] == nil {
		s.byLine[pos.Filename] = make(map[int]map[string]*AllowSite)
	}
	if s.byLine[pos.Filename][pos.Line] == nil {
		s.byLine[pos.Filename][pos.Line] = make(map[string]*AllowSite)
	}
	if s.byLine[pos.Filename][pos.Line][rule] != nil {
		return
	}
	site := &AllowSite{Pos: pos, Rule: rule}
	s.byLine[pos.Filename][pos.Line][rule] = site
	s.sites = append(s.sites, site)
}

// allows reports whether f is waived by a directive on its line or the
// line above, marking the matching directive as used.
func (s *suppressions) allows(f Finding) bool {
	lines := s.byLine[f.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, rule := range []string{f.Rule, "all"} {
			if site := lines[line][rule]; site != nil {
				site.used = true
				return true
			}
		}
	}
	return false
}

// unused returns the directive sites that suppressed nothing, sorted.
func (s *suppressions) unused() []AllowSite {
	var out []AllowSite
	for _, site := range s.sites {
		if !site.used {
			out = append(out, *site)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}

// AllowedRules returns the rules a //feedlint:allow comment waives, or nil
// for any other comment.
func AllowedRules(comment string) []string {
	text := strings.TrimSpace(comment)
	if !strings.HasPrefix(text, allowDirective) {
		return nil
	}
	rest := strings.TrimPrefix(text, allowDirective)
	// Strip an optional "-- reason" suffix.
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	return strings.Fields(rest)
}

// collectSuppressions scans a package's comments for allow directives.
func collectSuppressions(pkg *Package, sup *suppressions) {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, rule := range AllowedRules(c.Text) {
					sup.add(pos, rule)
				}
			}
		}
	}
}

// Stats carries the run's side products: wall time per analyzer (summed
// across packages) and the stale-suppression audit.
type Stats struct {
	// AnalyzerTime is the cumulative Run/RunModule wall time per analyzer.
	AnalyzerTime map[string]time.Duration
	// UnusedAllows lists //feedlint:allow directives that suppressed no
	// finding in this run — stale waivers that should be deleted.
	UnusedAllows []AllowSite
}

// Run executes every analyzer over every package, drops suppressed
// findings, and returns the remainder sorted by file, line, and rule.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	findings, _ := RunWithStats(pkgs, analyzers)
	return findings
}

// RunWithStats is Run plus per-analyzer timings and the stale-allow audit.
// Package analyzers run concurrently across packages (one worker per
// package, bounded by GOMAXPROCS); module analyzers run concurrently with
// each other. Analyzers must therefore keep Run/RunModule free of shared
// mutable state.
func RunWithStats(pkgs []*Package, analyzers []Analyzer) ([]Finding, Stats) {
	sup := newSuppressions()
	for _, pkg := range pkgs {
		collectSuppressions(pkg, sup)
	}

	var pkgAnalyzers []PackageAnalyzer
	var modAnalyzers []ModuleAnalyzer
	stats := Stats{AnalyzerTime: make(map[string]time.Duration)}
	for _, a := range analyzers {
		switch a := a.(type) {
		case PackageAnalyzer:
			pkgAnalyzers = append(pkgAnalyzers, a)
		case ModuleAnalyzer:
			modAnalyzers = append(modAnalyzers, a)
		default:
			panic(fmt.Sprintf("lint: analyzer %s implements neither PackageAnalyzer nor ModuleAnalyzer", a.Name()))
		}
	}

	var (
		mu  sync.Mutex
		raw []Finding
		wg  sync.WaitGroup
		sem = make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	)
	record := func(name string, elapsed time.Duration, findings []Finding) {
		mu.Lock()
		defer mu.Unlock()
		stats.AnalyzerTime[name] += elapsed
		raw = append(raw, findings...)
	}
	for _, pkg := range pkgs {
		wg.Add(1)
		go func(pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, a := range pkgAnalyzers {
				start := time.Now()
				fs := a.Run(pkg)
				record(a.Name(), time.Since(start), fs)
			}
		}(pkg)
	}
	for _, a := range modAnalyzers {
		wg.Add(1)
		go func(a ModuleAnalyzer) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			fs := a.RunModule(pkgs)
			record(a.Name(), time.Since(start), fs)
		}(a)
	}
	wg.Wait()

	var out []Finding
	for _, f := range raw {
		if !sup.allows(f) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	stats.UnusedAllows = sup.unused()
	return out, stats
}
