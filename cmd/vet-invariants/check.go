package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// defaultPackages are the deterministic kernel directories; see the
// package comment for why they may not import "time".
var defaultPackages = []string{
	"internal/eigen",
	"internal/melo",
	"internal/dprp",
	"internal/parallel",
	"internal/coarsen",
	"internal/multilevel",
}

// defaultDaemonPackages are the long-running daemon layers plus the
// multilevel kernel packages; see the package comment for why they may
// not call os.Exit or log.Fatal.
var defaultDaemonPackages = []string{
	"internal/jobs",
	"internal/server",
	"internal/journal",
	"internal/specstore",
	"internal/coarsen",
	"internal/multilevel",
}

// defaultArenaPackages are the packages whose solvers draw scratch
// vectors from a linalg.Arena; see the package comment for why an arena
// slice must never be returned to a caller.
var defaultArenaPackages = []string{
	"internal/eigen",
}

// checkTimeImports parses every non-test .go file directly inside the
// given package directories (imports only — bodies are never typed or
// compiled) and returns one violation string per "time" import, sorted.
// A listed directory that does not exist is an error: a silently
// skipped package is a silently dead invariant.
func checkTimeImports(root string, pkgDirs []string) ([]string, error) {
	fset := token.NewFileSet()
	var violations []string
	for _, dir := range pkgDirs {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		abs := filepath.Join(root, dir)
		entries, err := os.ReadDir(abs)
		if err != nil {
			return nil, fmt.Errorf("package %s: %w", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(abs, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if p == "time" {
					pos := fset.Position(imp.Path.Pos())
					violations = append(violations, fmt.Sprintf(
						"%s imports %q at line %d", filepath.Join(dir, name), p, pos.Line))
				}
			}
		}
	}
	sort.Strings(violations)
	return violations, nil
}

// checkArenaEscapes parses every non-test .go file directly inside the
// given package directories and returns one violation per return
// statement that hands an arena-owned vector to the caller. An arena
// vector is a local assigned from an expression containing a .Vec()
// method call (directly, or through a wrapper like randomUnitInto that
// returns its argument). The arena recycles those buffers on the next
// solve; a caller holding one would see its eigenvectors rewritten
// under it. Escaping positions are the returned expression itself, a
// slice of it, &composite or composite-literal fields — but not call
// arguments, since passing a scratch buffer to a copying helper
// (linalg.CopyVec, ritzPairs) is exactly how results are supposed to
// leave the arena. The check is purely syntactic (no type information),
// so it is a tripwire for the DESIGN.md ownership rule, not an escape
// analysis.
func checkArenaEscapes(root string, pkgDirs []string) ([]string, error) {
	fset := token.NewFileSet()
	var violations []string
	for _, dir := range pkgDirs {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		abs := filepath.Join(root, dir)
		entries, err := os.ReadDir(abs)
		if err != nil {
			return nil, fmt.Errorf("package %s: %w", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(abs, name)
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil, err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				// Locals assigned from an expression containing .Vec().
				arena := make(map[string]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok || len(as.Lhs) != len(as.Rhs) {
						return true
					}
					for i, rhs := range as.Rhs {
						if !containsVecCall(rhs) {
							continue
						}
						if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
							arena[id.Name] = true
						}
					}
					return true
				})
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					ret, ok := n.(*ast.ReturnStmt)
					if !ok {
						return true
					}
					for _, res := range ret.Results {
						for _, id := range escapingIdents(res) {
							if arena[id.Name] {
								pos := fset.Position(ret.Pos())
								violations = append(violations, fmt.Sprintf(
									"%s returns arena vector %q at line %d", filepath.Join(dir, name), id.Name, pos.Line))
							}
						}
						if callsVec(res) {
							pos := fset.Position(ret.Pos())
							violations = append(violations, fmt.Sprintf(
								"%s returns a fresh .Vec() allocation at line %d", filepath.Join(dir, name), pos.Line))
						}
					}
					return true
				})
			}
		}
	}
	sort.Strings(violations)
	return violations, nil
}

// containsVecCall reports whether the expression tree contains a call
// to a method named Vec (the arena allocation entry point).
func containsVecCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if callIsVec(n) {
			found = true
			return false
		}
		return !found
	})
	return found
}

func callIsVec(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Vec"
}

// escapingIdents collects identifiers that the expression would hand to
// the caller by reference: the expression itself, through slicing,
// address-of, parens, or composite-literal fields. Call arguments are
// deliberately excluded — a call is assumed to copy.
func escapingIdents(e ast.Expr) []*ast.Ident {
	var out []*ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		out = append(out, x)
	case *ast.ParenExpr:
		out = append(out, escapingIdents(x.X)...)
	case *ast.SliceExpr:
		out = append(out, escapingIdents(x.X)...)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			out = append(out, escapingIdents(x.X)...)
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				out = append(out, escapingIdents(kv.Value)...)
			} else {
				out = append(out, escapingIdents(el)...)
			}
		}
	}
	return out
}

// callsVec reports whether the expression is itself a .Vec() call in an
// escaping position (same positions as escapingIdents).
func callsVec(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CallExpr:
		return callIsVec(x)
	case *ast.ParenExpr:
		return callsVec(x.X)
	case *ast.SliceExpr:
		return callsVec(x.X)
	case *ast.UnaryExpr:
		return x.Op == token.AND && callsVec(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if callsVec(kv.Value) {
					return true
				}
			} else if callsVec(el) {
				return true
			}
		}
	}
	return false
}

// checkFatalCalls parses every non-test .go file directly inside the
// given package directories and returns one violation per os.Exit or
// log.Fatal/Fatalf/Fatalln call, sorted. The daemon layers must fail
// jobs, return errors or log-and-continue — a process kill buried in a
// library bypasses journal flushing, connection draining and the
// crash-safety contract the journal exists to uphold. Renamed imports
// are followed; test files are exempt.
func checkFatalCalls(root string, pkgDirs []string) ([]string, error) {
	fset := token.NewFileSet()
	var violations []string
	for _, dir := range pkgDirs {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		abs := filepath.Join(root, dir)
		entries, err := os.ReadDir(abs)
		if err != nil {
			return nil, fmt.Errorf("package %s: %w", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(abs, name)
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil, err
			}
			// Local names under which "os" and "log" are imported.
			pkgNames := make(map[string]string)
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil || (p != "os" && p != "log") {
					continue
				}
				local := p
				if imp.Name != nil {
					if imp.Name.Name == "_" || imp.Name.Name == "." {
						continue
					}
					local = imp.Name.Name
				}
				pkgNames[local] = p
			}
			if len(pkgNames) == 0 {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				p, ok := pkgNames[id.Name]
				if !ok {
					return true
				}
				fn := sel.Sel.Name
				if (p == "os" && fn == "Exit") || (p == "log" && strings.HasPrefix(fn, "Fatal")) {
					pos := fset.Position(call.Pos())
					violations = append(violations, fmt.Sprintf(
						"%s calls %s.%s at line %d", filepath.Join(dir, name), p, fn, pos.Line))
				}
				return true
			})
		}
	}
	sort.Strings(violations)
	return violations, nil
}
