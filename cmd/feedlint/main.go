// Command feedlint runs the asterixfeeds static-analysis suite: the
// layering, lock-order, durability-error and determinism invariants
// described in DESIGN.md
// ("Architecture invariants" and "Concurrency invariants").
//
// Usage:
//
//	feedlint [-list] [-v] [dir ...]
//
// With no arguments (or "./..."), feedlint analyzes the module containing
// the current directory. A directory argument selects the module
// containing that directory instead (the nearest go.mod walking upward),
// which is how the fixture modules under internal/lint/testdata are
// exercised. Findings print as "file:line: [rule] message"; any finding
// makes the exit status 1.
//
// -v reports the load time, per-analyzer wall time, and any files the
// loader skipped because of build constraints. Stdlib imports are
// type-checked from $GOROOT/src, so feedlint needs no build cache.
//
// Stale `//feedlint:allow` directives — waivers that no longer suppress
// anything — are reported as warnings on stderr but do not change the
// exit status.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"asterixfeeds/internal/lint"
	"asterixfeeds/internal/lint/all"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "report per-analyzer timings and loader skips")
	flag.Parse()

	as := all.Analyzers()
	if *list {
		for _, a := range as {
			fmt.Printf("%-12s %s\n", a.Name(), a.Doc())
		}
		return
	}

	roots := moduleRoots(flag.Args())
	exit := 0
	for _, root := range roots {
		findings, err := run(root, as, *verbose)
		if err != nil {
			fmt.Fprintln(os.Stderr, "feedlint:", err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Println(relFinding(f))
			exit = 1
		}
	}
	os.Exit(exit)
}

// moduleRoots maps the argument list to the set of directories to lint,
// treating no args and "./..." as the current directory.
func moduleRoots(args []string) []string {
	if len(args) == 0 {
		return []string{"."}
	}
	seen := make(map[string]bool)
	var out []string
	for _, a := range args {
		if a == "./..." || a == "..." {
			a = "."
		}
		a = filepath.Clean(a)
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// run lints the module containing dir and returns its findings.
func run(dir string, as []lint.Analyzer, verbose bool) ([]lint.Finding, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		// A file argument lints the module containing it.
		dir = filepath.Dir(dir)
	}
	loader, err := lint.NewLoader(dir)
	if err != nil {
		return nil, err
	}
	loadStart := time.Now()
	pkgs, err := loader.LoadAll()
	if err != nil {
		return nil, err
	}
	loadTime := time.Since(loadStart)

	findings, stats := lint.RunWithStats(pkgs, as)

	if verbose {
		fmt.Fprintf(os.Stderr, "feedlint: loaded %d packages in %v\n", len(pkgs), loadTime.Round(time.Millisecond))
		for _, sk := range loader.Skipped {
			fmt.Fprintf(os.Stderr, "feedlint: skipped %s (%s)\n", relPath(sk.Path), sk.Reason)
		}
		for _, a := range as {
			fmt.Fprintf(os.Stderr, "feedlint: %-12s %v\n", a.Name(), stats.AnalyzerTime[a.Name()].Round(time.Millisecond))
		}
	}
	for _, site := range stats.UnusedAllows {
		f := lint.Finding{Pos: site.Pos, Rule: "allow-audit",
			Message: fmt.Sprintf("stale //feedlint:allow %s: it suppresses nothing; delete the directive", site.Rule)}
		fmt.Fprintln(os.Stderr, "feedlint: warning:", relFinding(f))
	}
	return findings, nil
}

func relPath(path string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, path); err == nil && !filepath.IsAbs(rel) {
			return rel
		}
	}
	return path
}

// relFinding renders a finding with the file path relative to the current
// directory when possible, keeping output stable and short.
func relFinding(f lint.Finding) string {
	f.Pos.Filename = relPath(f.Pos.Filename)
	return f.String()
}
