package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single package through its Pass
// and reports diagnostics; cross-package state (lock classes, function lock
// summaries) is collected ahead of every Run and shared through Pass.World.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	World    *World

	report func(Diagnostic)
}

// Reportf files a diagnostic unless a matching suppression comment covers the
// position. A suppression is `//divflow:<analyzer>-ok <reason>` on the same
// line or the line above; the reason is mandatory — a bare suppression is
// itself reported, so every silenced finding carries a written justification.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	where := p.Prog.Fset.Position(pos)
	marker := "divflow:" + p.Analyzer.Name + "-ok"
	for _, line := range []int{where.Line, where.Line - 1} {
		for _, c := range p.Pkg.commentsAt(where.Filename, line) {
			text := strings.TrimSpace(strings.TrimPrefix(c, "//"))
			rest, ok := strings.CutPrefix(text, marker)
			if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
				continue
			}
			if strings.TrimSpace(rest) == "" {
				p.report(Diagnostic{
					Pos:      where,
					Analyzer: p.Analyzer.Name,
					Message:  fmt.Sprintf("suppression %s requires a reason", marker),
				})
			}
			return
		}
	}
	p.report(Diagnostic{Pos: where, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{WallclockAnalyzer, LockOrderAnalyzer, EmitMuAnalyzer, FloatExactAnalyzer}
}

// ByName resolves a comma-separated analyzer list; empty means All.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a := byName[strings.TrimSpace(n)]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers collects lock facts over every loaded package (dependencies
// included — order annotations in internal/obs must be visible when server is
// checked), then runs each analyzer over the packages matching the load
// patterns. Diagnostics come back sorted by position.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	world := NewWorld()
	for _, pkg := range prog.Pkgs {
		CollectLocks(prog, pkg, world)
	}
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !pkg.Analyze {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Prog:     prog,
				Pkg:      pkg,
				World:    world,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// staticCallee resolves a call to its compile-time *types.Func: a plain or
// package-qualified function, or a concrete method. Interface methods, func
// values, and builtins resolve to nil — dynamic dispatch is outside the
// analyzers' reach and they treat it as unknown.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal || types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified identifier: pkg.Func.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcKey names a function for cross-package fact storage:
// "pkgpath.Recv.Name" for methods, "pkgpath.Name" otherwise.
func funcKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			recv = n.Obj().Name() + "."
		}
	}
	return fn.Pkg().Path() + "." + recv + fn.Name()
}

// isBigRatPtr reports whether t is *math/big.Rat.
func isBigRatPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "math/big" && n.Obj().Name() == "Rat"
}

// pathIn reports whether pkgPath is one of the listed divflow subtrees,
// matching by suffix so analysistest packages can mirror real paths.
func pathIn(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) || strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}
