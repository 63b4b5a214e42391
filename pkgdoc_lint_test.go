// Package-doc and dead-surface lint: every package under internal/ (and
// cmd/) must carry a substantive package-level doc comment, because the
// layering of this codebase is documented in godoc, not in a separate
// architecture file that would drift; and every exported name under
// internal/ must have a non-test user. Run via `go test .` — CI's lint
// job includes it.
package mmlpt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// minDocLen is the floor for a package comment: long enough that "does
// stuff" cannot pass, short enough not to demand an essay of genuinely
// small packages.
const minDocLen = 120

func TestEveryInternalPackageHasDoc(t *testing.T) {
	t.Parallel()
	checkTree(t, "internal")
	checkTree(t, "cmd")
}

func checkTree(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return err
		}
		for name, pkg := range pkgs {
			var doc string
			var files []string
			for path, f := range pkg.Files {
				files = append(files, path)
				if f.Doc != nil && len(f.Doc.Text()) > len(doc) {
					doc = f.Doc.Text()
				}
			}
			if len(files) == 0 {
				continue
			}
			if doc == "" {
				t.Errorf("package %s (%s) has no package-level doc comment; state what it does and where it sits in the layering", name, dir)
				continue
			}
			wantPrefix := "Package " + name + " "
			if name == "main" {
				wantPrefix = "Command "
			}
			if !strings.HasPrefix(doc, wantPrefix) {
				t.Errorf("package %s (%s): doc comment must start with %q, got %q", name, dir, wantPrefix, firstLine(doc))
			}
			if len(doc) < minDocLen {
				t.Errorf("package %s (%s): doc comment is %d chars, want at least %d — say what the package does AND its layering role", name, dir, len(doc), minDocLen)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// deadSurfaceAllowlist names the exported identifiers under internal/
// that no non-test file references and that stay anyway, each with the
// reason. Keep it short: the default for an unreferenced name is to delete
// it, or to move it into its package's _test.go when only tests use it.
var deadSurfaceAllowlist = map[string]string{
	"fakeroute.LBPerFlow": "the zero value of LBMode: every path defaults to it, so no code has to name it, but the other modes are defined against it",
	"prior.FromGraph":     "test fixture shared by the flow-order pins and mdalite's prior-seed tests; it must call the unexported normalize",
	"topo.Equal":          "graph-equality oracle shared by the tests of traceio, fakeroute and groundtruth",
}

// stdInterfaceMethods are method names that satisfy a standard-library
// interface, so the call that reaches them is made by the library (fmt,
// errors, encoding/json, sort, io, net/http), not by a selector in the
// module.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// TestNoDeadExportedSurface: every exported top-level func, type, var and
// const and every exported method declared in a non-test file under
// internal/ must be referenced by a non-test file of the module (internal/,
// cmd/, examples/, the root package or bench/) outside its own
// declaration, or be named in deadSurfaceAllowlist. Top-level names match
// as pkg.Name through the referring file's imports, or bare inside their
// own package; methods match by selector name, and a method whose name
// belongs to a module interface or a standard one is exempt.
func TestNoDeadExportedSurface(t *testing.T) {
	t.Parallel()
	ix, err := indexSurface(".", "mmlpt")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range ix.decls {
		declared[d.display] = true
		if d.key.pkg == "" && (stdInterfaceMethods[d.key.name] || ix.ifaceMethods[d.key.name]) {
			continue
		}
		_, allowed := deadSurfaceAllowlist[d.display]
		switch live := ix.referenced(d); {
		case live && allowed:
			t.Errorf("%s is referenced now; drop it from deadSurfaceAllowlist", d.display)
		case !live && !allowed:
			t.Errorf("%s (%s) is exported but no non-test file uses it: delete it, move it into a _test.go file, or allowlist it with a reason",
				d.display, ix.fset.Position(d.pos))
		}
	}
	for name := range deadSurfaceAllowlist {
		if !declared[name] {
			t.Errorf("deadSurfaceAllowlist names %s, which is not declared under internal/", name)
		}
	}
}

// surfaceKey names what a reference can reach: a top-level identifier by
// its package's import path, or a method (pkg "") by its name alone.
type surfaceKey struct{ pkg, name string }

// surfaceDecl is one exported declaration under internal/; references
// inside [pos, end) are the declaration's own and do not count.
type surfaceDecl struct {
	key      surfaceKey
	display  string
	pos, end token.Pos
}

type surfaceIndex struct {
	fset         *token.FileSet
	decls        []surfaceDecl
	refs         map[surfaceKey][]token.Pos
	ifaceMethods map[string]bool
}

// indexSurface parses every non-test Go file under root (skipping
// testdata and hidden directories) and records the exported declarations
// under internal/ and every reference the files make.
func indexSurface(root, module string) (*surfaceIndex, error) {
	ix := &surfaceIndex{
		fset:         token.NewFileSet(),
		refs:         map[surfaceKey][]token.Pos{},
		ifaceMethods: map[string]bool{},
	}
	type srcFile struct {
		pkg string
		f   *ast.File
	}
	var files []srcFile
	pkgName := map[string]string{} // import path -> package name
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(ix.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		pkgName[pkg] = f.Name.Name
		files = append(files, srcFile{pkg, f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, sf := range files {
		if strings.HasPrefix(sf.pkg, module+"/internal/") {
			ix.addDecls(sf.f, sf.pkg)
		}
		imports := map[string]string{}
		for _, imp := range sf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if name, ok := pkgName[p]; ok {
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = p
			}
		}
		ix.addRefs(sf.f, sf.pkg, imports)
	}
	return ix, nil
}

func (ix *surfaceIndex) addDecls(f *ast.File, pkg string) {
	short := pkg[strings.LastIndexByte(pkg, '/')+1:]
	add := func(k surfaceKey, display string, n ast.Node) {
		ix.decls = append(ix.decls, surfaceDecl{k, short + "." + display, n.Pos(), n.End()})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			switch {
			case !d.Name.IsExported():
			case d.Recv == nil:
				add(surfaceKey{pkg, d.Name.Name}, d.Name.Name, d)
			default:
				add(surfaceKey{"", d.Name.Name}, recvTypeName(d.Recv.List[0].Type)+"."+d.Name.Name, d)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(surfaceKey{pkg, s.Name.Name}, s.Name.Name, s)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							add(surfaceKey{pkg, name.Name}, name.Name, s)
						}
					}
				}
			}
		}
	}
}

func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}

// addRefs records every identifier f uses. pkg is f's import path and
// imports maps f's local names for module packages to their import paths.
func (ix *surfaceIndex) addRefs(f *ast.File, pkg string, imports map[string]string) {
	ref := func(k surfaceKey, p token.Pos) { ix.refs[k] = append(ix.refs[k], p) }
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			// A method's receiver names its own type; that is not a use.
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, name := range m.Names {
					ix.ifaceMethods[name.Name] = true
				}
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					ref(surfaceKey{p, n.Sel.Name}, n.Sel.Pos())
					return false
				}
			}
			ref(surfaceKey{"", n.Sel.Name}, n.Sel.Pos())
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			ref(surfaceKey{pkg, n.Name}, n.Pos())
		}
		return true
	}
	ast.Inspect(f, visit)
}

// referenced reports whether some reference to d lies outside d itself.
func (ix *surfaceIndex) referenced(d surfaceDecl) bool {
	for _, p := range ix.refs[d.key] {
		if p < d.pos || p >= d.end {
			return true
		}
	}
	return false
}
