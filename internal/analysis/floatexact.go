package analysis

import (
	"go/ast"
	"go/types"
)

// FloatExactAnalyzer forbids converting exact quantities to floating point
// inside the decision paths: internal/core and internal/sim compute the
// paper's schedules in exact rational arithmetic — *big.Rat at their
// boundaries, exact.Q inside — and a single .Float64() there silently
// reintroduces the rounding the whole design exists to avoid. The float layer
// belongs to internal/lp's proposal step (floats propose, the exact layer
// verifies; lp.FloatImage is where a probe's coefficients cross) and to
// presentation code.
var FloatExactAnalyzer = &Analyzer{
	Name: "floatexact",
	Doc:  "forbid big.Rat and exact.Q Float64/Float32 in internal/core and internal/sim decision paths",
	Run:  runFloatExact,
}

func runFloatExact(pass *Pass) {
	if !pathIn(pass.Pkg.Path, "internal/core", "internal/sim") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name != "Float64" && sel.Sel.Name != "Float32" {
				return true
			}
			fn := staticCallee(pass.Pkg.Info, call)
			if fn == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil ||
				!isBigRatPtr(sig.Recv().Type()) && !isExactQ(sig.Recv().Type()) {
				return true
			}
			pass.Reportf(call.Pos(), "%s on an exact quantity in a decision path; floats belong to internal/lp proposals and presentation code", sel.Sel.Name)
			return true
		})
	}
}

// isExactQ reports whether t is divflow's exact.Q or a pointer to it.
func isExactQ(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && pathIn(n.Obj().Pkg().Path(), "internal/exact") && n.Obj().Name() == "Q"
}
