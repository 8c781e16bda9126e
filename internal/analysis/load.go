package analysis

import (
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
)

// Loader parses and type-checks module packages from source, using
// only the standard library: module-local imports resolve recursively
// inside the module directory, everything else (the standard library)
// goes through go/importer's source compiler. One Loader caches every
// package it touches, so a whole-module lint pays the stdlib
// type-checking cost once.
type Loader struct {
	ModuleDir  string
	ModulePath string

	fset  *token.FileSet
	std   types.ImporterFrom
	types map[string]*types.Package
	pkgs  map[string]*Package
}

// NewLoader returns a loader rooted at the module directory, reading
// the module path from its go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", moduleDir)
	}
	fset := token.NewFileSet()
	l := &Loader{
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		fset:       fset,
		types:      map[string]*types.Package{},
		pkgs:       map[string]*Package{},
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// Fset exposes the loader's file set (positions in Findings refer to it).
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer over the module + standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.types[path]; ok {
		return p, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(filepath.Join(l.ModuleDir, strings.TrimPrefix(path, l.ModulePath)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package in dir (non-test files
// only). Soft type errors are collected on the Package rather than
// failing the load, so analysis degrades gracefully.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPath(abs)
	if err != nil {
		return nil, err
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go source in %s", abs)
	}
	return l.check(path, abs, files, true)
}

// LoadSource type-checks a single in-memory file as the package at the
// given import path; fixture tests use it to feed analyzers synthetic
// positive and negative cases.
func (l *Loader) LoadSource(path, filename, src string) (*Package, error) {
	f, err := parser.ParseFile(l.fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return l.check(path, "", []*ast.File{f}, false)
}

func (l *Loader) check(path, dir string, files []*ast.File, cache bool) (*Package, error) {
	p := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { p.TypeErrors = append(p.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, p.Info)
	p.Types = tpkg
	if cache {
		l.types[path] = tpkg
		l.pkgs[path] = p
	}
	return p, nil
}

// importPath maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPath(abs string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", abs, l.ModuleDir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// ExpandPatterns resolves go-style package patterns ("./...",
// "dir/...", plain directories) relative to base into the sorted list
// of directories that contain non-test Go source. Hidden directories,
// testdata, and vendor trees are skipped.
func ExpandPatterns(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "...")
		root = strings.TrimSuffix(root, "/")
		if root == "" {
			root = "."
		}
		if !filepath.IsAbs(root) {
			root = filepath.Join(base, root)
		}
		if !recursive {
			if hasGoSource(root) {
				add(root)
			} else {
				return nil, fmt.Errorf("no Go source in %s", root)
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoSource(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoSource(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}
