package analysis

import (
	"go/ast"
	"go/types"
)

// RatAliasAnalyzer flags *big.Rat values that arrive through a field, map,
// slice, or parameter and then escape — returned, or stored into another
// structure — without an intervening copy. Rats are mutable; an aliased one
// crossing an ownership boundary (caller to record, record to snapshot) is
// exactly the bug class the PR 3 statsSnapshot fix and the PR 4 migration
// machinery closed by hand. Any call result (new(big.Rat).Set(x), copyRat(x),
// engine accessors that copy) counts as a fresh value; locals are tracked by
// a single forward pass so `tmp := rec.size; other.f = tmp` is still caught.
//
// A struct *value* whose type carries *big.Rat fields (directly or through
// struct-typed fields, embedded ones included) is an alias source too:
// `rec.Job = job` shares every rational in it. Again any call result
// (job.Clone()) is fresh, and so is a local or parameter struct value once
// each of its rational-carrying fields has been overwritten with a fresh
// value — the shape of a Clone method, which the rule thereby checks for
// completeness.
//
// exact.Q is the one struct value that carries a *big.Rat and is exempt:
// nothing writes the rational after the value is built, so a copy shares
// nothing that can change.
var RatAliasAnalyzer = &Analyzer{
	Name: "ratalias",
	Doc:  "forbid returning or storing an aliased *big.Rat (from field/map/parameter) without a copy in internal/sim, internal/server, internal/model",
	Run:  runRatAlias,
}

func runRatAlias(pass *Pass) {
	if !pathIn(pass.Pkg.Path, "internal/sim", "internal/server", "internal/model") {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRatAliases(pass, fd)
		}
	}
}

// checkRatAliases runs the taint pass over one function.
func checkRatAliases(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	// Parameters (and the receiver) are incoming aliases by definition.
	params := make(map[*types.Var]bool)
	sig, _ := info.Defs[fd.Name].Type().(*types.Signature)
	if sig != nil {
		if r := sig.Recv(); r != nil {
			params[r] = true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			params[sig.Params().At(i)] = true
		}
	}
	// taint maps a local variable to the description of the alias it
	// currently carries ("" / absent = owned or unknown-but-fresh).
	taint := make(map[*types.Var]string)
	// fresh records, per struct-valued variable, the rational-carrying fields
	// overwritten with fresh values since the variable was last assigned.
	fresh := make(map[*types.Var]map[*types.Var]bool)
	cleaned := func(v *types.Var) bool {
		fields := ratFields(v.Type())
		for _, f := range fields {
			if !fresh[v][f] {
				return false
			}
		}
		return len(fields) > 0
	}

	// source classifies an expression: where would this *big.Rat alias from?
	var source func(e ast.Expr) string
	source = func(e ast.Expr) string {
		e = ast.Unparen(e)
		if t, ok := info.Types[e]; !ok || !carriesRat(t.Type) {
			return ""
		}
		switch e := e.(type) {
		case *ast.Ident:
			v, ok := info.Uses[e].(*types.Var)
			if !ok {
				return ""
			}
			if cleaned(v) {
				return ""
			}
			if params[v] {
				return "parameter " + v.Name()
			}
			return taint[v]
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
				return "field " + sel.Obj().Name()
			}
		case *ast.IndexExpr:
			switch info.Types[e.X].Type.Underlying().(type) {
			case *types.Map:
				return "map element"
			case *types.Slice, *types.Array:
				return "slice element"
			}
		}
		return ""
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				// Track taint through locals.
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					v := localVar(info, id)
					if v != nil && carriesRat(v.Type()) {
						delete(fresh, v)
						if rhs != nil {
							taint[v] = source(rhs)
						} else {
							delete(taint, v) // multi-value: call result, fresh
						}
					}
					continue
				}
				// Storing into a field, map, or slice element.
				if rhs == nil {
					continue
				}
				src := source(rhs)
				if v, f := valueField(info, lhs); v != nil && src == "" {
					if fresh[v] == nil {
						fresh[v] = make(map[*types.Var]bool)
					}
					fresh[v][f] = true
				}
				if src != "" && storesIntoStructure(info, lhs) {
					what, fix := describe(info, rhs)
					pass.Reportf(n.Pos(), "stores %s aliased from %s without a copy; %s", what, src, fix)
				}
			}
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				if src := source(e); src != "" {
					what, fix := describe(info, e)
					pass.Reportf(e.Pos(), "returns %s aliased from %s without a copy; %s", what, src, fix)
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if src := source(val); src != "" {
					what, fix := describe(info, val)
					pass.Reportf(val.Pos(), "stores %s aliased from %s into a composite literal without a copy; %s", what, src, fix)
				}
			}
		}
		return true
	})
}

// ratFields lists the fields through which a struct value of type t shares
// rationals with whatever it was copied from: *big.Rat fields, and struct-typed
// fields that carry some. Empty for every non-struct type.
func ratFields(t types.Type) []*types.Var {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); carriesRat(f.Type()) {
			out = append(out, f)
		}
	}
	return out
}

// carriesRat reports whether copying a value of type t aliases a rational.
func carriesRat(t types.Type) bool {
	if _, ptr := t.(*types.Pointer); !ptr && isExactQ(t) {
		return false
	}
	return isBigRatPtr(t) || len(ratFields(t)) > 0
}

// describe words a diagnostic for the two kinds of alias: what escaped, and
// the fix.
func describe(info *types.Info, e ast.Expr) (what, fix string) {
	if isBigRatPtr(info.Types[e].Type) {
		return "*big.Rat", "wrap it in new(big.Rat).Set(...)"
	}
	return "a struct value carrying *big.Rat", "clone it"
}

// valueField resolves `v.f = ...` where v is a struct-valued variable (not a
// pointer: that would be a store into shared state) and f one of its
// rational-carrying fields; nil, nil otherwise.
func valueField(info *types.Info, lhs ast.Expr) (*types.Var, *types.Var) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	v, _ := info.Uses[id].(*types.Var)
	s, ok := info.Selections[sel]
	if v == nil || !ok || s.Kind() != types.FieldVal || len(ratFields(v.Type())) == 0 {
		return nil, nil
	}
	f, _ := s.Obj().(*types.Var)
	if f == nil || !carriesRat(f.Type()) {
		return nil, nil
	}
	return v, f
}

// localVar resolves an identifier to a function-local variable (Defs for :=,
// Uses for plain assignment); nil for blank, globals, and everything else.
func localVar(info *types.Info, id *ast.Ident) *types.Var {
	if id.Name == "_" {
		return nil
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Parent() == nil || v.Parent().Parent() == types.Universe {
		return nil
	}
	return v
}

// storesIntoStructure reports whether the assignment target is a field
// selector or an index expression — a store that gives the alias a second
// owner.
func storesIntoStructure(info *types.Info, lhs ast.Expr) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel, ok := info.Selections[lhs]
		return ok && sel.Kind() == types.FieldVal
	case *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	}
	return false
}
