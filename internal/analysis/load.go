// Module loading: a stdlib-only substitute for golang.org/x/tools'
// packages.Load. The repository keeps go.mod dependency-free, so
// fgbsvet parses every package itself with go/parser and type-checks
// in dependency order with go/types. Standard-library imports are
// resolved by the go/importer source importer (which type-checks
// GOROOT sources and needs no pre-built export data); module-local
// imports are resolved from the packages already checked earlier in
// the topological order.
package analysis

import (
	"context"
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

	"fgbs/internal/fanout"
)

// A Package is one loaded, type-checked module package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory the package was read from.
	Dir string
	// Fset resolves token positions for Files.
	Fset *token.FileSet
	// Files holds the parsed non-test Go files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's facts about Files.
	Info *types.Info

	allows    map[allowKey][]allowDirective
	badAllows []Diagnostic

	// funcSummaries caches the flow-sensitive checks' shared
	// per-function facts (see summary.go); built lazily by the first
	// check that needs it. All checks for one package run on a single
	// goroutine, so no synchronization is required.
	funcSummaries *pkgSummary
}

// A Module is a loaded view of one Go module: every package parsed,
// type-checked, and topologically sorted by imports.
type Module struct {
	// Path is the module path from go.mod.
	Path string
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Fset resolves positions across all packages.
	Fset *token.FileSet
	// Pkgs holds every package, dependencies before dependents.
	Pkgs []*Package
}

// LoadModule loads and type-checks every package of the module that
// contains dir on up to workers goroutines (workers <= 1 loads
// serially). Files are parsed concurrently, and type-checking proceeds
// in topological waves: every package whose local dependencies are
// already checked is in the current wave, and a wave's packages check
// concurrently. The package order and type facts do not depend on
// workers, so analysis output is byte-identical at any worker count.
// Test files (*_test.go) are skipped: the invariants fgbsvet guards
// apply to shipped code, and several checks explicitly exempt tests.
// Type errors fail the load — the analyzers need sound type
// information.
func LoadModule(dir string, workers int) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	// Parse phase: token.FileSet and go/parser are safe for concurrent
	// use with distinct files.
	fset := token.NewFileSet()
	parsed := make([]*parsedPkg, len(dirs))
	err = fanout.Run(context.Background(), len(dirs), workers, func(i int) (err error) {
		importPath := modPath
		if rel, _ := filepath.Rel(root, dirs[i]); rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		parsed[i], err = parseDir(fset, dirs[i], importPath)
		return err
	})
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*parsedPkg, len(dirs))
	for _, pp := range parsed {
		if pp != nil {
			byPath[pp.path] = pp
		}
	}

	order, err := topoSort(byPath, modPath)
	if err != nil {
		return nil, err
	}

	// Type-check phase: waves over the dependency depth. depth(p) is
	// 1 + max(depth of local deps); packages of equal depth cannot
	// import each other, so a wave is safely concurrent.
	depth := make(map[string]int, len(order))
	for _, pp := range order { // order is deps-first, so deps are done
		d := 0
		for _, imp := range pp.imports {
			if byPath[imp] != nil && depth[imp]+1 > d {
				d = depth[imp] + 1
			}
		}
		depth[pp.path] = d
	}
	maxDepth := 0
	for _, d := range depth {
		if d > maxDepth {
			maxDepth = d
		}
	}

	checker := newTypeChecker(fset)
	checked := make(map[string]*Package, len(order))
	for wave := 0; wave <= maxDepth; wave++ {
		var batch []*parsedPkg
		for _, pp := range order {
			if depth[pp.path] == wave {
				batch = append(batch, pp)
			}
		}
		pkgs := make([]*Package, len(batch))
		err := fanout.Run(context.Background(), len(batch), workers, func(i int) (err error) {
			pkgs[i], err = checker.check(batch[i])
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, pp := range batch {
			checked[pp.path] = pkgs[i]
		}
	}

	m := &Module{Path: modPath, Dir: root, Fset: fset}
	for _, pp := range order {
		m.Pkgs = append(m.Pkgs, checked[pp.path])
	}
	return m, nil
}

// LoadDir loads a single directory as one standalone package under the
// synthetic import path. It is the corpus loader used by the testdata
// harness: corpus packages may import the standard library but not
// each other.
func LoadDir(dir, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	pp, err := parseDir(fset, dir, importPath)
	if err != nil {
		return nil, err
	}
	if pp == nil {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return newTypeChecker(fset).check(pp)
}

// Select filters the module's packages by command-line patterns:
// "./..." (everything, the default), "./dir/..." (subtree), "./dir"
// or "dir" (one package), or the same forms spelled with the module
// path prefix.
func (m *Module) Select(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var out []*Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		matched := false
		for _, pkg := range m.Pkgs {
			if m.match(pat, pkg) {
				matched = true
				if !seen[pkg.Path] {
					seen[pkg.Path] = true
					out = append(out, pkg)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("no packages match %q", pat)
		}
	}
	return out, nil
}

// match reports whether pkg is named by pattern.
func (m *Module) match(pattern string, pkg *Package) bool {
	// Normalize to an import path relative to the module.
	p := strings.TrimSuffix(strings.TrimPrefix(pattern, "./"), "/")
	recursive := false
	if p == "..." {
		return true
	}
	if s, ok := strings.CutSuffix(p, "/..."); ok {
		p, recursive = s, true
	}
	if p == "." || p == "" {
		p = m.Path
	} else if !strings.HasPrefix(p, m.Path) {
		p = m.Path + "/" + p
	}
	if recursive {
		return pkg.Path == p || strings.HasPrefix(pkg.Path, p+"/")
	}
	return pkg.Path == p
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
	}
}

// packageDirs lists every directory under root that may hold a
// package, skipping testdata, vendor, and hidden or underscore
// directories, exactly as the go tool does.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parsedPkg is a package parsed but not yet type-checked.
type parsedPkg struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string
}

// parseDir parses the non-test Go files of one directory. It returns
// nil (no error) when the directory holds no Go files.
func parseDir(fset *token.FileSet, dir, importPath string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pp := &parsedPkg{path: importPath, dir: dir}
	imports := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pp.files = append(pp.files, f)
		for _, imp := range f.Imports {
			imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(pp.files) == 0 {
		return nil, nil
	}
	for imp := range imports {
		pp.imports = append(pp.imports, imp)
	}
	sort.Strings(pp.imports)
	return pp, nil
}

// topoSort orders the module's packages dependencies-first so each
// package's local imports are type-checked before it is.
func topoSort(byPath map[string]*parsedPkg, modPath string) ([]*parsedPkg, error) {
	var order []*parsedPkg
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		pp := byPath[path]
		for _, imp := range pp.imports {
			if imp == modPath || strings.HasPrefix(imp, modPath+"/") {
				if byPath[imp] == nil {
					return fmt.Errorf("%s imports %s: no such package in module", path, imp)
				}
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = 2
		order = append(order, pp)
		return nil
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// typeChecker type-checks packages against a shared importer so the
// (expensive) source-import of the standard library happens once.
// Import and the local-package table are mutex-guarded: the parallel
// loader type-checks independent packages concurrently, and while
// token.FileSet is documented as concurrency-safe, the source
// importer is not.
type typeChecker struct {
	fset *token.FileSet
	// mu guards local and std.
	mu    sync.Mutex
	local map[string]*types.Package
	std   types.Importer
}

func newTypeChecker(fset *token.FileSet) *typeChecker {
	return &typeChecker{
		fset:  fset,
		local: make(map[string]*types.Package),
		std:   importer.ForCompiler(fset, "source", nil),
	}
}

// Import resolves module-local packages from the already-checked set
// and everything else through the standard-library source importer.
func (tc *typeChecker) Import(path string) (*types.Package, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if pkg, ok := tc.local[path]; ok {
		return pkg, nil
	}
	return tc.std.Import(path)
}

func (tc *typeChecker) check(pp *parsedPkg) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []types.Error
	cfg := &types.Config{
		Importer: tc,
		Error: func(err error) {
			if te, ok := err.(types.Error); ok {
				typeErrs = append(typeErrs, te)
			}
		},
	}
	tpkg, err := cfg.Check(pp.path, tc.fset, pp.files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for i, te := range typeErrs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-i))
				break
			}
			msgs = append(msgs, fmt.Sprintf("%s: %s", tc.fset.Position(te.Pos), te.Msg))
		}
		return nil, fmt.Errorf("type errors in %s:\n%s", pp.path, strings.Join(msgs, "\n"))
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pp.path, err)
	}
	tc.mu.Lock()
	tc.local[pp.path] = tpkg
	tc.mu.Unlock()

	pkg := &Package{
		Path:   pp.path,
		Dir:    pp.dir,
		Fset:   tc.fset,
		Files:  pp.files,
		Types:  tpkg,
		Info:   info,
		allows: make(map[allowKey][]allowDirective),
	}
	for _, f := range pp.files {
		pkg.collectAllows(f)
	}
	return pkg, nil
}
