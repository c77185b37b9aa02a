package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// LoadedPackage is one type-checked module package ready for analysis.
type LoadedPackage struct {
	ImportPath string
	Dir        string
	// DepOnly marks a module package pulled in only as a dependency of the
	// requested patterns: it must be analyzed so its exported facts reach
	// dependents, but it is outside the reporting scope of the run.
	DepOnly bool
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// Loader loads module packages for analysis. It shells out to `go list
// -deps -export` once to learn the package graph and the export-data files
// of every dependency (stdlib included), then parses and type-checks the
// module's own packages from source, resolving imports through the gc
// export data — no typechecking of the standard library, no third-party
// driver.
type Loader struct {
	// Dir is the module root the go list invocation runs in.
	Dir string
	// Overlay maps absolute file paths to replacement contents; the
	// regression tests use it to inject synthetic violations without
	// touching the working tree.
	Overlay map[string][]byte
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Module     *struct{ Path string }
	DepOnly    bool
}

// NewTypesInfo returns a types.Info with every map the analyzers consult.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load lists patterns (e.g. "./...") and returns the matched module
// packages, parsed and type-checked.
func (l *Loader) Load(patterns ...string) ([]*LoadedPackage, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,Module,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// Module dependencies of the patterns load too: dependency order is
		// what lets a shared fact store resolve cross-package facts when the
		// patterns name a subset of the module (the caller reports only on
		// non-DepOnly packages).
		if p.Module != nil && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var loaded []*LoadedPackage
	for _, p := range targets {
		names := p.GoFiles
		if len(names) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range names {
			path := filepath.Join(p.Dir, name)
			var src any
			if body, ok := l.Overlay[path]; ok {
				src = body
			}
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := NewTypesInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
		}
		loaded = append(loaded, &LoadedPackage{
			ImportPath: p.ImportPath,
			Dir:        p.Dir,
			DepOnly:    p.DepOnly,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			Info:       info,
		})
	}
	return loaded, nil
}

// LoadTestdataPackage parses and type-checks one GOPATH-style fixture
// package rooted at srcRoot (testdata/src): the import path maps to
// srcRoot/<path>, fixture imports resolve against sibling fixture
// directories first and the standard library (type-checked from GOROOT
// source) second. Used by the analysistest harness.
func LoadTestdataPackage(srcRoot, path string) (*LoadedPackage, error) {
	fset := token.NewFileSet()
	ti := &testdataImporter{
		fset:    fset,
		srcRoot: srcRoot,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*types.Package),
	}
	files, pkg, info, err := ti.load(path)
	if err != nil {
		return nil, err
	}
	return &LoadedPackage{
		ImportPath: path,
		Dir:        filepath.Join(srcRoot, path),
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}, nil
}

type testdataImporter struct {
	fset    *token.FileSet
	srcRoot string
	std     types.Importer
	pkgs    map[string]*types.Package
}

func (ti *testdataImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.pkgs[path]; ok {
		return pkg, nil
	}
	if st, err := os.Stat(filepath.Join(ti.srcRoot, path)); err == nil && st.IsDir() {
		_, pkg, _, err := ti.load(path)
		return pkg, err
	}
	return ti.std.Import(path)
}

func (ti *testdataImporter) load(path string) ([]*ast.File, *types.Package, *types.Info, error) {
	dir := filepath.Join(ti.srcRoot, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ti.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: ti}
	pkg, err := conf.Check(path, ti.fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("typecheck fixture %s: %v", path, err)
	}
	ti.pkgs[path] = pkg
	return files, pkg, info, nil
}
