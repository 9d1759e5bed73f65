package analysis

import (
	"go/ast"
	"go/types"
)

// LockOrderAnalyzer enforces the fleet's declared lock order. Every annotated
// mutex belongs to a class, classes form a partial order through their
// `before=` edges (reshard outermost, the durability mu and the obs journal
// innermost, shard mus strictly ascending by idx), and this pass interprets
// each function body against that order: a Lock (direct, or transitively via
// any statically-resolvable callee — callee acquire-sets are cross-package
// facts) while holding a class that the order does not put first is a
// diagnostic. Acquiring a second instance of the same class is reserved for
// the blessed `ascending=` helpers, and calling one while already holding
// the class it blesses is a diagnostic too: the blessing covers the helper's
// own sweep, not a lock its caller brought in.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the declared mutex order (//divflow:locks annotations): ascending shard mus via blessed helpers only, no inverted acquisitions",
	Run:  func(pass *Pass) { runLockChecks(pass, true) },
}

// EmitMuAnalyzer enforces held-lock contracts at call sites: a function
// annotated `requires=<class>` — every obs journal emission helper tagged
// with a shard, and every "callers hold sh.mu" helper — may only be called
// where the interpreter can see that class held. This is PR 6's "all
// emission sites hold the shard mu" rule, mechanized.
var EmitMuAnalyzer = &Analyzer{
	Name: "emitmu",
	Doc:  "require //divflow:locks requires=<class> functions (obs emission sites included) to be called with the class held",
	Run:  func(pass *Pass) { runLockChecks(pass, false) },
}

func runLockChecks(pass *Pass, orderMode bool) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			checkFuncBody(pass, pass.World, fd.Body, pass.World.Funcs[funcKey(obj)], orderMode)
		}
	}
}
