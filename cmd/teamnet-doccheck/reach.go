package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allowlist names the caller-less internal/ declarations that stay, each
// with the reason it stays. An entry whose declaration gains a caller, or
// disappears, fails the run, so the list cannot outlive its reasons.
var allowlist = map[string]string{}

// arches are the file sets reachability is decided over: a reference made
// under either one keeps a declaration.
var arches = []string{"amd64", "arm64"}

// decl is one package-level declaration of the checked scope: a func,
// method, type, var or const.
type decl struct {
	name string // package name qualified: pkg.Name or pkg.Type.Method
	pos  string // file:line relative to the module root
	refs map[string]bool
}

// graph is the reference graph of one module, merged over every arch.
type graph struct {
	decls map[string]*decl // by key: import path, then .Name or .Type.Method
	roots map[string]bool  // keys referenced from code that always counts
}

// unreachable type-checks the Go module at root and reports every
// package-level declaration in the non-test files of root/internal that no
// caller reaches, by position, less the allowlisted ones. A declaration is
// reached when non-test code outside internal/ or another package's tests
// refers to it, when a reached declaration does, or when it is a method
// satisfying an interface that its reached type implements. problems lists
// allowlist entries with no reason, no declaration, or a caller.
func unreachable(root string, allow map[string]string) (flagged, problems []string, err error) {
	g, err := buildGraph(root)
	if err != nil {
		return nil, nil, err
	}
	byName := make(map[string][]string)
	for k, d := range g.decls {
		byName[d.name] = append(byName[d.name], k)
	}
	reached := g.reach(nil)
	var allowed []string
	for name, reason := range allow {
		keys := byName[name]
		switch {
		case strings.TrimSpace(reason) == "":
			problems = append(problems, fmt.Sprintf("allowlist entry %s gives no reason", name))
		case len(keys) == 0:
			problems = append(problems, fmt.Sprintf("allowlist entry %s names no declaration", name))
		}
		for _, k := range keys {
			if reached[k] {
				problems = append(problems, fmt.Sprintf("allowlist entry %s has a caller; delete the entry", name))
			}
		}
		allowed = append(allowed, keys...)
	}
	reached = g.reach(allowed)
	for k, d := range g.decls {
		if !reached[k] {
			flagged = append(flagged, d.pos+": "+d.name)
		}
	}
	sort.Strings(flagged)
	sort.Strings(problems)
	return flagged, problems, nil
}

// reach returns the keys reached from the graph's roots and extra.
func (g *graph) reach(extra []string) map[string]bool {
	reached := make(map[string]bool)
	var stack []string
	mark := func(k string) {
		if !reached[k] {
			reached[k] = true
			stack = append(stack, k)
		}
	}
	for k := range g.roots {
		mark(k)
	}
	for _, k := range extra {
		mark(k)
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d := g.decls[k]; d != nil {
			for r := range d.refs {
				mark(r)
			}
		}
	}
	return reached
}

// pkgFiles is one package directory's parsed files.
type pkgFiles struct {
	dir, path string
	files     []*ast.File
	names     []string // base names, parallel to files
}

// buildGraph parses every package of the module at root once and
// type-checks it once per arch, merging the references into one graph.
func buildGraph(root string) (*graph, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var pkgs []*pkgFiles
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module is not this module's code
			}
		}
		p, err := parseDir(fset, root, modPath, path)
		if p != nil {
			pkgs = append(pkgs, p)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	g := &graph{decls: make(map[string]*decl), roots: make(map[string]bool)}
	std := importer.Default()
	for _, arch := range arches {
		if err := addArch(g, fset, root, modPath+"/internal", pkgs, std, arch); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func modulePath(root string) (string, error) {
	f, err := os.Open(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", root)
}

func parseDir(fset *token.FileSet, root, modPath, dir string) (*pkgFiles, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	p := &pkgFiles{dir: dir, path: modPath}
	if rel != "." {
		p.path += "/" + filepath.ToSlash(rel)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
		p.names = append(p.names, e.Name())
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	return p, nil
}

// archChecker type-checks the module for one arch. It is the importer of
// the module's own packages; the standard library comes from std.
type archChecker struct {
	g       *graph
	fset    *token.FileSet
	root    string
	scope   string // import path prefix of the declarations checked
	ctx     build.Context
	std     types.Importer
	sizes   types.Sizes
	byPath  map[string]*pkgFiles
	sets    map[string]fileSets
	checked map[string]*types.Package
	infos   map[string]*types.Info
}

func addArch(g *graph, fset *token.FileSet, root, scope string, pkgs []*pkgFiles, std types.Importer, arch string) error {
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = "linux", arch, false
	c := &archChecker{
		g: g, fset: fset, root: root, scope: scope, ctx: ctx, std: std,
		sizes:   types.SizesFor("gc", arch),
		byPath:  make(map[string]*pkgFiles),
		sets:    make(map[string]fileSets),
		checked: make(map[string]*types.Package),
		infos:   make(map[string]*types.Info),
	}
	for _, p := range pkgs {
		c.byPath[p.path] = p
		c.sets[p.path] = c.split(p)
	}
	for _, p := range pkgs {
		if _, err := c.Import(p.path); err != nil {
			return err
		}
	}
	var ifaces []*types.Interface
	seen := make(map[*types.Package]bool)
	for _, p := range pkgs {
		if pkg := c.checked[p.path]; pkg != nil {
			ifaces = collectInterfaces(pkg, c.infos[p.path], seen, ifaces)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range pkgs {
		if pkg := c.checked[p.path]; pkg != nil {
			c.addNonTest(p, pkg, ifaces)
		}
		c.addTests(p)
	}
	return nil
}

// fileSets are one package's files built for an arch: the non-test files,
// the in-package tests and the external (_test package) tests.
type fileSets struct{ src, inTest, xTest []*ast.File }

func (c *archChecker) split(p *pkgFiles) (set fileSets) {
	for i, f := range p.files {
		if ok, err := c.ctx.MatchFile(p.dir, p.names[i]); err != nil || !ok {
			continue
		}
		switch {
		case !strings.HasSuffix(p.names[i], "_test.go"):
			set.src = append(set.src, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			set.xTest = append(set.xTest, f)
		default:
			set.inTest = append(set.inTest, f)
		}
	}
	return set
}

// Import type-checks the non-test files of a module package, once.
func (c *archChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	if c.byPath[path] == nil {
		return c.std.Import(path)
	}
	src := c.sets[path].src
	if len(src) == 0 {
		c.checked[path] = nil
		return nil, nil
	}
	info := newInfo()
	var firstErr error
	conf := types.Config{Importer: c, Sizes: c.sizes, Error: func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}}
	pkg, _ := conf.Check(path, c.fset, src, info)
	if firstErr != nil {
		return nil, fmt.Errorf("%s (%s): %w", path, c.ctx.GOARCH, firstErr)
	}
	c.checked[path], c.infos[path] = pkg, info
	return pkg, nil
}

// addNonTest records a package's non-test references: each declaration's
// outgoing references when the package is in scope, roots otherwise.
func (c *archChecker) addNonTest(p *pkgFiles, pkg *types.Package, ifaces []*types.Interface) {
	info := c.infos[p.path]
	src := c.sets[p.path].src
	if !c.inScope(pkg.Path()) {
		for _, f := range src {
			c.useAll(f, info, func(k string) { c.g.roots[k] = true })
		}
		return
	}
	for _, f := range src {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "init" && d.Recv == nil {
					c.useAll(d, info, func(k string) { c.g.roots[k] = true })
					continue
				}
				n := c.declare(info.Defs[d.Name])
				c.useAll(d, info, func(k string) { n.refs[k] = true })
			case *ast.GenDecl:
				// Deleting a constant of an iota group renumbers the ones
				// after it, so each keeps every earlier one.
				var earlier []string
				numbered := d.Tok == token.CONST && c.usesIota(d, info)
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						if id.Name == "_" {
							continue // an assertion, not a caller
						}
						obj := info.Defs[id]
						n := c.declare(obj)
						c.useAll(spec, info, func(k string) { n.refs[k] = true })
						if numbered {
							for _, k := range earlier {
								n.refs[k] = true
							}
							k, _ := keyOf(obj)
							earlier = append(earlier, k)
						}
						if _, ok := obj.(*types.TypeName); !ok {
							// An iota const or an inferred var names its type nowhere in its spec.
							if tn := typeNameOf(obj.Type()); tn != nil {
								if k, ok := keyOf(tn); ok {
									n.refs[k] = true
								}
							}
						}
					}
				}
			}
		}
	}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		c.addSatisfying(tn, ifaces)
	}
}

func (c *archChecker) usesIota(d *ast.GenDecl, info *types.Info) bool {
	found := false
	c.uses(d, info, func(obj types.Object) {
		found = found || obj == types.Universe.Lookup("iota")
	})
	return found
}

// addSatisfying makes tn keep each method of its own, or of a type it
// embeds, that makes tn or *tn implement an interface.
func (c *archChecker) addSatisfying(tn *types.TypeName, ifaces []*types.Interface) {
	n := c.declare(tn)
	for _, iface := range ifaces {
		var t types.Type = tn.Type()
		if !types.Implements(t, iface) {
			if t = types.NewPointer(t); !types.Implements(t, iface) {
				continue
			}
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
			if k, ok := keyOf(obj); ok {
				n.refs[k] = true
			}
		}
	}
}

// addTests records the references a package's tests make to other
// packages as roots: a package's own tests keep none of its code.
func (c *archChecker) addTests(p *pkgFiles) {
	set := c.sets[p.path]
	if len(set.inTest)+len(set.xTest) == 0 {
		return
	}
	ignore := func(error) {} // a test-only import cycle can leave type errors in a test build
	root := func(obj types.Object) {
		if k, ok := keyOf(obj); ok && obj.Pkg().Path() != p.path {
			c.g.roots[k] = true
		}
	}
	info := newInfo()
	conf := types.Config{Importer: c, Sizes: c.sizes, Error: ignore}
	withTests, _ := conf.Check(p.path, c.fset, append(set.src[:len(set.src):len(set.src)], set.inTest...), info)
	for _, f := range set.inTest {
		c.uses(f, info, root)
	}
	if len(set.xTest) == 0 {
		return
	}
	info = newInfo()
	conf.Importer = importerFunc(func(path string) (*types.Package, error) {
		if path == p.path && withTests != nil {
			return withTests, nil
		}
		return c.Import(path)
	})
	conf.Check(p.path+"_test", c.fset, set.xTest, info)
	for _, f := range set.xTest {
		c.uses(f, info, root)
	}
}

func (c *archChecker) inScope(path string) bool {
	return path == c.scope || strings.HasPrefix(path, c.scope+"/")
}

// declare returns the graph node of an in-scope package-level object.
func (c *archChecker) declare(obj types.Object) *decl {
	k, _ := keyOf(obj)
	if n := c.g.decls[k]; n != nil {
		return n
	}
	pos := c.fset.Position(obj.Pos())
	file, _ := filepath.Rel(c.root, pos.Filename)
	n := &decl{
		name: obj.Pkg().Name() + strings.TrimPrefix(k, obj.Pkg().Path()),
		pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line),
		refs: make(map[string]bool),
	}
	c.g.decls[k] = n
	return n
}

// useAll calls add with the key of every package-level object that node
// refers to.
func (c *archChecker) useAll(node ast.Node, info *types.Info, add func(string)) {
	c.uses(node, info, func(obj types.Object) {
		if k, ok := keyOf(obj); ok {
			add(k)
		}
	})
}

func (c *archChecker) uses(node ast.Node, info *types.Info, use func(types.Object)) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				use(obj)
			}
		}
		return true
	})
}

// collectInterfaces appends every interface with methods that pkg, the
// packages it imports, or an interface literal in its code declares.
func collectInterfaces(pkg *types.Package, info *types.Info, seen map[*types.Package]bool, out []*types.Interface) []*types.Interface {
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg)
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			out = append(out, it)
		}
	}
	return out
}

// keyOf names a package-level func, method, type, var or const by import
// path and name; ok is false for anything else (fields, locals, interface
// methods, builtins).
func keyOf(obj types.Object) (key string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			tn := typeNameOf(recv.Type())
			if tn == nil || types.IsInterface(tn.Type()) {
				return "", false
			}
			return o.Pkg().Path() + "." + tn.Name() + "." + o.Name(), true
		}
		obj = o
	case *types.Var:
		if o.IsField() {
			return "", false
		}
		obj = o.Origin()
	case *types.TypeName, *types.Const:
	default:
		return "", false
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name(), true
}

// typeNameOf returns the declared name of t, or of what t points to.
func typeNameOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func newInfo() *types.Info {
	return &types.Info{
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
