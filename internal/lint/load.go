package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// sharedFset positions every file any Loader in this process parses or
// imports. Sharing one FileSet (token.FileSet is safe for concurrent use)
// is what lets the stdlib importer below be memoized across loaders: a
// types.Package produced for one fixture module is reusable by the next,
// instead of re-type-checking the standard library per module.
var sharedFset = token.NewFileSet()

// stdImporter is the process-wide stdlib importer: go/importer's "source"
// compiler, which type-checks the standard library from $GOROOT/src and so
// needs no build cache and no subprocess. It memoizes imported packages
// internally; stdMu serializes it because it does not document
// concurrency safety.
var stdImporter = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)

var stdMu sync.Mutex

// SkippedFile records a source file the loader excluded from analysis,
// with the build constraint that excluded it. feedlint -v prints these so
// an unsatisfiable tag can never silently hide a file from the analyzers.
type SkippedFile struct {
	// Path is the absolute path of the excluded file.
	Path string
	// Reason names the constraint, e.g. `build tags "windows" not satisfied`.
	Reason string
}

// Loader parses and type-checks every package of one Go module using only
// the standard library. Stdlib imports are resolved from source via
// go/importer's "source" compiler (no build cache or export data
// required); module-internal imports are resolved recursively by the
// loader itself.
type Loader struct {
	// RootDir is the absolute directory containing go.mod.
	RootDir string
	// Module is the module path declared in go.mod.
	Module string
	// Skipped lists files excluded by build constraints, in load order.
	Skipped []SkippedFile

	fset    *token.FileSet
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader locates the module containing dir (walking up to the nearest
// go.mod) and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found at or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		RootDir: root,
		Module:  modPath,
		fset:    sharedFset,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file without
// golang.org/x/mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// LoadAll walks the module tree and loads every package, skipping
// testdata, vendor, hidden, and underscore-prefixed directories. Packages
// are returned sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.Walk(l.RootDir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			return nil
		}
		name := info.Name()
		if path != l.RootDir &&
			(name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(l.RootDir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.Module)
		} else {
			paths = append(paths, l.Module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if errors.Is(err, errAllFilesExcluded) {
			// Every file in the directory is behind an unsatisfied build
			// constraint; the exclusions are recorded in l.Skipped.
			continue
		}
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load parses and type-checks the module-internal package at importPath,
// caching the result.
func (l *Loader) Load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir := l.RootDir
	if importPath != l.Module {
		rel := strings.TrimPrefix(importPath, l.Module+"/")
		dir = filepath.Join(l.RootDir, filepath.FromSlash(rel))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	var files []*ast.File
	excluded := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("lint: read %s: %w", name, err)
		}
		if reason, ok := excludedByBuild(name, src); ok {
			l.Skipped = append(l.Skipped, SkippedFile{Path: path, Reason: reason})
			excluded++
			continue
		}
		f, err := parser.ParseFile(l.fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		if excluded > 0 {
			return nil, fmt.Errorf("lint: %s: %w", importPath, errAllFilesExcluded)
		}
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	pkg := &Package{
		Path:   importPath,
		Module: l.Module,
		Dir:    dir,
		Fset:   l.fset,
		Files:  files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	// Check returns a usable (partial) package even on type errors; those
	// are recorded in pkg.TypeErrors and analyzers degrade gracefully.
	tpkg, _ := conf.Check(importPath, l.fset, files, pkg.Info)
	pkg.Pkg = tpkg
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// Import implements types.Importer, routing module-internal paths through
// the loader and everything else to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.RootDir, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	// Stdlib packages go through the process-wide memoized importer; the
	// mutex serializes loaders running in parallel (test binaries, the
	// per-root goroutines in cmd/feedlint) over its internal cache.
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImporter.ImportFrom(path, dir, mode)
}
