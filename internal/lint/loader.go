package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// A LoadConfig describes one package to parse and type-check for analysis.
// Imports are resolved through compiler ("gc") export data, exactly as the
// go command's own vet driver supplies it, so no source for dependencies
// is required.
type LoadConfig struct {
	// ImportPath is the canonical package path.
	ImportPath string
	// GoFiles are the package's source files (absolute paths).
	GoFiles []string
	// ImportMap maps import paths as written in source to canonical
	// package paths (may be nil when they coincide).
	ImportMap map[string]string
	// PackageFile maps canonical package paths to files containing gc
	// export data (from the build cache or a .a archive).
	PackageFile map[string]string
}

// A Package bundles everything an analyzer pass needs.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// LoadPackage parses and type-checks one package from export data.
func LoadPackage(cfg LoadConfig) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(error) {}, // collect what we can; first error returned below
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", cfg.ImportPath, err)
	}
	return &Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// AnalyzePkg loads the package and runs the analyzers with the facts of
// its dependencies available in store (nil means none), returning the
// package's own exported facts alongside the findings.  Drivers call this
// in dependency order, feeding each package's facts forward, so the
// interprocedural analyzers see the whole downward closure.
func AnalyzePkg(cfg LoadConfig, analyzers []*Analyzer, store *FactStore) ([]Diagnostic, *token.FileSet, *PkgFacts, error) {
	p, err := LoadPackage(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	diags, facts, err := RunPkg(analyzers, p.Fset, p.Files, p.Pkg, p.Info, store)
	return diags, p.Fset, facts, err
}
