package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lock annotations. A mutex field joins a *lock class* via a comment in its
// doc or trailing position:
//
//	//divflow:locks name=shard before=topo
//	mu sync.Mutex
//
// `name` declares the class; `before` lists classes that may be acquired
// while this one is held (the declared order is the transitive closure of
// these edges). Functions carry their lock contracts the same way, on the
// declaration's doc comment:
//
//	//divflow:locks requires=reshard ascending=shard
//
// `requires` = classes the caller must already hold; `ascending` = classes
// the function is blessed to acquire more than one instance of (ascending by
// shard idx — the annotation is the reviewed allowlist entry, the analyzer
// enforces that no other code double-acquires, and that no caller calls a
// blessed function while already holding the class it blesses). A function
// literal invoked under locks can carry `requires=` on the line above the
// literal; a literal is never blessed.
//
// Everything collected here is keyed by plain strings (class names,
// "pkgpath.Recv.Name" function keys), so a fact collected in one package is
// found from any other.

// FuncLocks is the exported lock fact for one function: its annotation plus
// the transitive set of classes it may acquire.
type FuncLocks struct {
	Acquires  map[string]bool // classes this function (or any callee) may lock
	Requires  []string        // classes that must be held on entry
	Ascending map[string]bool // classes blessed for multi-instance acquisition
}

// World is the cross-package fact store shared by all passes.
type World struct {
	// FieldClass maps "pkgpath.Type.Field" to a lock class name.
	FieldClass map[string]string
	// Before holds the declared direct order edges: Before[a][b] means b may
	// be acquired while a is held.
	Before map[string]map[string]bool
	// Funcs maps funcKey to its lock fact.
	Funcs map[string]*FuncLocks

	orderMemo map[[2]string]bool
}

func NewWorld() *World {
	return &World{
		FieldClass: make(map[string]string),
		Before:     make(map[string]map[string]bool),
		Funcs:      make(map[string]*FuncLocks),
		orderMemo:  make(map[[2]string]bool),
	}
}

// orderedBefore reports whether the declared order admits acquiring b while a
// is held (a path a -> ... -> b in the Before graph).
func (w *World) orderedBefore(a, b string) bool {
	key := [2]string{a, b}
	if v, ok := w.orderMemo[key]; ok {
		return v
	}
	w.orderMemo[key] = false // cycle guard
	ok := false
	for next := range w.Before[a] {
		if next == b || w.orderedBefore(next, b) {
			ok = true
			break
		}
	}
	w.orderMemo[key] = ok
	return ok
}

// parseLocksAnnotation extracts the k=v pairs from a `//divflow:locks ...`
// comment, or nil if the comment is not one.
func parseLocksAnnotation(comment string) map[string]string {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, ok := strings.CutPrefix(text, "divflow:locks")
	if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
		return nil
	}
	kv := make(map[string]string)
	for _, f := range strings.Fields(rest) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		kv[k] = v
	}
	return kv
}

// annotationFor finds a //divflow:locks annotation in a comment group.
func annotationFor(cg *ast.CommentGroup) map[string]string {
	if cg == nil {
		return nil
	}
	for _, c := range cg.List {
		if kv := parseLocksAnnotation(c.Text); kv != nil {
			return kv
		}
	}
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// CollectLocks gathers lock classes and function lock facts from one package
// into the world. Dependencies must be collected first: transitive acquire
// sets pull callee summaries from the world as they go, with an in-package
// fixpoint for mutual recursion.
func CollectLocks(prog *Program, pkg *Package, world *World) {
	// Pass 1: annotated mutex fields declare classes and order edges.
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				kv := annotationFor(field.Doc)
				if kv == nil {
					kv = annotationFor(field.Comment)
				}
				if kv == nil || kv["name"] == "" {
					continue
				}
				class := kv["name"]
				if world.Before[class] == nil {
					world.Before[class] = make(map[string]bool)
				}
				for _, b := range splitList(kv["before"]) {
					world.Before[class][b] = true
				}
				for _, name := range field.Names {
					world.FieldClass[pkg.Path+"."+ts.Name.Name+"."+name.Name] = class
				}
			}
			return true
		})
	}

	// Pass 2: function annotations + direct acquisitions + call edges.
	type funcInfo struct {
		fl      *FuncLocks
		callees []string
	}
	var infos []*funcInfo
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			key := funcKey(obj)
			if key == "" {
				continue
			}
			fl := &FuncLocks{Acquires: make(map[string]bool), Ascending: make(map[string]bool)}
			if kv := annotationFor(fd.Doc); kv != nil {
				fl.Requires = splitList(kv["requires"])
				for _, c := range splitList(kv["ascending"]) {
					fl.Ascending[c] = true
				}
			}
			fi := &funcInfo{fl: fl}
			// Scan the body for direct Lock/RLock on annotated classes and
			// for statically-resolvable callees. Goroutine bodies and
			// function literals are excluded: what a spawned goroutine or a
			// stored closure locks is not part of this function's
			// synchronous footprint (literals get their own contract via a
			// line annotation, checked at the literal).
			scanSync(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				if class, op := lockOp(pkg, world, call); class != "" {
					if op == "Lock" || op == "RLock" {
						fl.Acquires[class] = true
					}
					return
				}
				if callee := staticCallee(pkg.Info, call); callee != nil {
					if k := funcKey(callee); k != "" {
						fi.callees = append(fi.callees, k)
					}
				}
			})
			world.Funcs[key] = fl
			infos = append(infos, fi)
		}
	}

	// Fixpoint over in-package call cycles; callees in already-collected
	// packages are final, so one extra sweep suffices for them.
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			for _, k := range fi.callees {
				cf := world.Funcs[k]
				if cf == nil {
					continue
				}
				for c := range cf.Acquires {
					if !fi.fl.Acquires[c] {
						fi.fl.Acquires[c] = true
						changed = true
					}
				}
			}
		}
	}
}

// scanSync walks a body in source order, skipping goroutine bodies and
// function-literal bodies.
func scanSync(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// Arguments evaluate synchronously; the call itself does not.
			for _, arg := range n.Call.Args {
				scanSync(arg, visit)
			}
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// lockOp classifies a call as a mutex operation on an annotated lock class.
// It returns the class and the method name (Lock/RLock/Unlock/RUnlock, or
// TryLock/TryRLock), or "" when the call is anything else.
func lockOp(pkg *Package, world *World, call *ast.CallExpr) (class, op string) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch fun.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	sel, ok := pkg.Info.Selections[fun]
	if !ok || sel.Kind() != types.MethodVal {
		return "", ""
	}
	fn, ok := sel.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	// The receiver expression must be a selection of an annotated field:
	// owner.mu.Lock() (possibly through intermediate selectors).
	fieldSel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fsel, ok := pkg.Info.Selections[fieldSel]
	if !ok || fsel.Kind() != types.FieldVal {
		return "", ""
	}
	field, ok := fsel.Obj().(*types.Var)
	if !ok {
		return "", ""
	}
	recv := fsel.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", ""
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
	return world.FieldClass[key], fun.Sel.Name
}

// heldSet is the abstract state: the lock classes held at a program point.
// A class, not an instance count: the only blessed multi-instance section
// is the all-shards sweep (Server.cut, under which a snapshot exports and a
// reshard publishes), which takes every instance in one loop and releases
// them all in another.
type heldSet map[string]bool

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (h heldSet) names() string {
	if len(h) == 0 {
		return "nothing"
	}
	var ns []string
	for k := range h {
		ns = append(ns, k)
	}
	sort.Strings(ns)
	return strings.Join(ns, ",")
}

// lockChecker runs the held-set interpretation of one function body. Two
// analyzers drive it: lockorder reports ordering violations (orderMode),
// emitmu reports requires-contract violations at call sites.
type lockChecker struct {
	pass      *Pass
	world     *World
	fl        *FuncLocks // contract of the function being checked
	orderMode bool
}

// checkFuncBody interprets a function body starting from its annotated
// requires-set.
func checkFuncBody(pass *Pass, world *World, body *ast.BlockStmt, fl *FuncLocks, orderMode bool) {
	if fl == nil {
		fl = &FuncLocks{Acquires: map[string]bool{}, Ascending: map[string]bool{}}
	}
	ck := &lockChecker{pass: pass, world: world, fl: fl, orderMode: orderMode}
	held := make(heldSet)
	for _, r := range fl.Requires {
		held[r] = true
	}
	ck.stmts(body.List, held)
}

// stmts interprets a statement list, mutating held in place; it reports
// whether control falls off the end (false = the list always terminates via
// return/panic/branch).
func (ck *lockChecker) stmts(list []ast.Stmt, held heldSet) bool {
	for _, s := range list {
		if !ck.stmt(s, held) {
			return false
		}
	}
	return true
}

// stmt interprets one statement; returns false when control does not continue
// past it.
func (ck *lockChecker) stmt(s ast.Stmt, held heldSet) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return ck.stmts(s.List, held)
	case *ast.LabeledStmt:
		return ck.stmt(s.Stmt, held)
	case *ast.ExprStmt:
		ck.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ck.expr(e, held)
		}
		for _, e := range s.Lhs {
			ck.expr(e, held)
		}
	case *ast.IncDecStmt:
		ck.expr(s.X, held)
	case *ast.SendStmt:
		ck.expr(s.Chan, held)
		ck.expr(s.Value, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ck.expr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ck.expr(e, held)
		}
		return false
	case *ast.BranchStmt:
		// break/continue/goto: the state does not flow to the next statement
		// in this list.
		return false
	case *ast.DeferStmt:
		// A deferred Unlock keeps the class held to the end of the function
		// (the usual lock-guard idiom). Other deferred calls run at exit
		// under an unknowable held-set; only their argument expressions are
		// interpreted here.
		if class, op := lockOp(ck.pass.Pkg, ck.world, s.Call); class != "" && (op == "Unlock" || op == "RUnlock") {
			return true
		}
		for _, a := range s.Call.Args {
			ck.expr(a, held)
		}
	case *ast.GoStmt:
		// The goroutine body runs concurrently, holding nothing.
		for _, a := range s.Call.Args {
			ck.expr(a, held)
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			ck.funcLit(lit)
		} else {
			ck.call(s.Call, make(heldSet))
		}
	case *ast.IfStmt:
		if s.Init != nil {
			ck.stmt(s.Init, held)
		}
		ck.expr(s.Cond, held)
		thenHeld, elseHeld := held.clone(), held.clone()
		if class, negated := ck.tryLock(s.Cond); class != "" {
			// The branch the try succeeded on holds the class.
			if negated {
				elseHeld[class] = true
			} else {
				thenHeld[class] = true
			}
		}
		thenLive := ck.stmts(s.Body.List, thenHeld)
		elseLive := true
		if s.Else != nil {
			elseLive = ck.stmt(s.Else, elseHeld)
		}
		mergeInto(held, thenHeld, thenLive, elseHeld, elseLive)
		return thenLive || elseLive
	case *ast.ForStmt:
		if s.Init != nil {
			ck.stmt(s.Init, held)
		}
		if s.Cond != nil {
			ck.expr(s.Cond, held)
		}
		bodyHeld := held.clone()
		ck.stmts(s.Body.List, bodyHeld)
		if s.Post != nil {
			ck.stmt(s.Post, bodyHeld)
		}
		ck.loopCarry(s.Body.Lbrace, held, bodyHeld)
	case *ast.RangeStmt:
		ck.expr(s.X, held)
		bodyHeld := held.clone()
		ck.stmts(s.Body.List, bodyHeld)
		ck.loopCarry(s.Body.Lbrace, held, bodyHeld)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ck.branches(s, held)
	}
	return true
}

// tryLock recognizes an if condition that is a TryLock or TryRLock of an
// annotated class, or its negation. A try never blocks, so it is checked
// against no order; it only adds the class to the branch it succeeded on.
func (ck *lockChecker) tryLock(cond ast.Expr) (class string, negated bool) {
	e := ast.Unparen(cond)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		e, negated = ast.Unparen(u.X), true
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if class, op := lockOp(ck.pass.Pkg, ck.world, call); op == "TryLock" || op == "TryRLock" {
		return class, negated
	}
	return "", false
}

// loopCarry propagates a loop body's net lock effect. A class acquired in
// the body and still held at its end stays held after the loop — and because
// the body may run again, that is instance-after-instance acquisition, which
// only functions blessed `ascending=<class>` may do (the all-shards lock
// sweep of Server.cut). A class the body releases (the matching
// unlock-descending sweep) is no longer held after the loop.
func (ck *lockChecker) loopCarry(pos token.Pos, held, bodyHeld heldSet) {
	for c := range bodyHeld {
		if !held[c] && ck.orderMode && !ck.fl.Ascending[c] {
			ck.pass.Reportf(pos, "loop acquires %s instance per iteration without //divflow:locks ascending=%s blessing", c, c)
		}
	}
	for c := range held {
		delete(held, c)
	}
	for c := range bodyHeld {
		held[c] = true
	}
}

// branches interprets switch/type-switch/select: each case starts from the
// incoming state; the continuation keeps what every live exit (and the
// no-case-taken path, absent a default) agrees is held.
func (ck *lockChecker) branches(s ast.Stmt, held heldSet) {
	var cases [][]ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			ck.stmt(s.Init, held)
		}
		if s.Tag != nil {
			ck.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				ck.expr(e, held)
			}
			cases = append(cases, cc.Body)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ck.stmt(s.Init, held)
		}
		ck.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			cases = append(cases, cc.Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm == nil {
				hasDefault = true
			} else {
				ck.stmt(cc.Comm, held.clone())
			}
			cases = append(cases, cc.Body)
		}
	}
	exits := make([]heldSet, 0, len(cases)+1)
	for _, body := range cases {
		h := held.clone()
		if ck.stmts(body, h) {
			exits = append(exits, h)
		}
	}
	if !hasDefault {
		exits = append(exits, held.clone())
	}
	intersectInto(held, exits)
}

func mergeInto(held, a heldSet, aLive bool, b heldSet, bLive bool) {
	var exits []heldSet
	if aLive {
		exits = append(exits, a)
	}
	if bLive {
		exits = append(exits, b)
	}
	intersectInto(held, exits)
}

// intersectInto replaces held with the intersection of the exit states (the
// conservative continuation: a class counts as held only if every live path
// holds it).
func intersectInto(held heldSet, exits []heldSet) {
	if len(exits) == 0 {
		return // no live exit: the continuation is unreachable, keep as-is
	}
	for k := range held {
		delete(held, k)
	}
	for k := range exits[0] {
		all := true
		for _, e := range exits[1:] {
			all = all && e[k]
		}
		if all {
			held[k] = true
		}
	}
}

// expr interprets an expression for lock effects, in evaluation order where
// it matters.
func (ck *lockChecker) expr(e ast.Expr, held heldSet) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		if lit, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
			// Immediately-invoked literal: runs here, under the current
			// held-set (plus whatever its own annotation adds).
			for _, a := range e.Args {
				ck.expr(a, held)
			}
			ck.funcLitWith(lit, held)
			return
		}
		ck.expr(e.Fun, held)
		for _, a := range e.Args {
			ck.expr(a, held)
		}
		ck.call(e, held)
	case *ast.FuncLit:
		ck.funcLit(e)
	case *ast.ParenExpr:
		ck.expr(e.X, held)
	case *ast.SelectorExpr:
		ck.expr(e.X, held)
	case *ast.IndexExpr:
		ck.expr(e.X, held)
		ck.expr(e.Index, held)
	case *ast.SliceExpr:
		ck.expr(e.X, held)
		ck.expr(e.Low, held)
		ck.expr(e.High, held)
		ck.expr(e.Max, held)
	case *ast.StarExpr:
		ck.expr(e.X, held)
	case *ast.UnaryExpr:
		ck.expr(e.X, held)
	case *ast.BinaryExpr:
		ck.expr(e.X, held)
		ck.expr(e.Y, held)
	case *ast.KeyValueExpr:
		ck.expr(e.Key, held)
		ck.expr(e.Value, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			ck.expr(el, held)
		}
	case *ast.TypeAssertExpr:
		ck.expr(e.X, held)
	}
}

// call applies the lock effects and contract checks of one call.
func (ck *lockChecker) call(call *ast.CallExpr, held heldSet) {
	if class, op := lockOp(ck.pass.Pkg, ck.world, call); class != "" {
		switch op {
		case "Lock", "RLock":
			ck.acquire(call.Pos(), class, held)
			held[class] = true
		case "Unlock", "RUnlock":
			delete(held, class)
		}
		return
	}
	callee := staticCallee(ck.pass.Pkg.Info, call)
	if callee == nil {
		return
	}
	fl := ck.world.Funcs[funcKey(callee)]
	if fl == nil {
		return
	}
	if !ck.orderMode {
		for _, r := range fl.Requires {
			if !held[r] {
				ck.pass.Reportf(call.Pos(), "call to %s requires %s held (holding %s)", callee.Name(), r, held.names())
			}
		}
		return
	}
	for c := range fl.Acquires {
		if held[c] {
			if !ck.fl.Ascending[c] {
				ck.pass.Reportf(call.Pos(), "call to %s may acquire %s while %s is already held (no ascending blessing)", callee.Name(), c, c)
			}
			continue
		}
		ck.checkOrder(call.Pos(), c, held, "call to "+callee.Name()+" may acquire")
	}
}

// acquire checks one direct Lock/RLock against the held-set and the declared
// order.
func (ck *lockChecker) acquire(pos token.Pos, class string, held heldSet) {
	if !ck.orderMode {
		return
	}
	if held[class] {
		if !ck.fl.Ascending[class] {
			ck.pass.Reportf(pos, "re-acquires %s while already held; only //divflow:locks ascending=%s helpers may hold two instances", class, class)
		}
		return
	}
	ck.checkOrder(pos, class, held, "acquires")
}

func (ck *lockChecker) checkOrder(pos token.Pos, class string, held heldSet, verb string) {
	for h := range held {
		if h == class {
			continue
		}
		if !ck.world.orderedBefore(h, class) {
			ck.pass.Reportf(pos, "%s %s while holding %s, but the declared order does not allow %s under %s", verb, class, h, class, h)
		}
	}
}

// funcLit analyzes a function literal under its own `requires=` contract (the
// `//divflow:locks` comment on the literal's first line or the line above),
// or an empty held-set when unannotated.
func (ck *lockChecker) funcLit(lit *ast.FuncLit) {
	ck.funcLitWith(lit, make(heldSet))
}

func (ck *lockChecker) funcLitWith(lit *ast.FuncLit, outer heldSet) {
	fl := &FuncLocks{Acquires: map[string]bool{}, Ascending: map[string]bool{}}
	pos := ck.pass.Prog.Fset.Position(lit.Pos())
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, c := range ck.pass.Pkg.commentsAt(pos.Filename, line) {
			if kv := parseLocksAnnotation(c); kv != nil {
				fl.Requires = splitList(kv["requires"])
			}
		}
	}
	held := outer.clone()
	for _, r := range fl.Requires {
		held[r] = true
	}
	sub := &lockChecker{pass: ck.pass, world: ck.world, fl: fl, orderMode: ck.orderMode}
	sub.stmts(lit.Body.List, held)
}
