package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewMaprange returns the maprange analyzer: a `range` over a map whose
// body feeds an order-sensitive sink is a finding unless the collected
// data is sorted afterwards. Go randomizes map iteration order per run,
// so anything order-sensitive built inside such a loop — appended
// slices that are never sorted, strings.Builder/bytes.Buffer writes,
// json.Encoder output, fmt.Fprint emission, float accumulation — can
// differ byte-for-byte between two runs of the same input. This is the
// exact bug class behind an order-dependent CanonicalBytes.
//
// Recognized-as-safe: appending to a slice that a later sort.* /
// slices.* call on the same variable normalizes, and slices declared
// inside the loop body. Everything else needs a sort or an
// //mcvlint:allow <reason>.
func NewMaprange() *Analyzer {
	a := &Analyzer{Name: "maprange"}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			if isTestFile(pass, f) {
				continue
			}
			// Collect top-level function bodies: the scope within which
			// a later sort can redeem an append.
			var funcs []ast.Node
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					funcs = append(funcs, fd)
				}
			}
			for _, fn := range funcs {
				body := fn.(*ast.FuncDecl).Body
				ast.Inspect(body, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok || !rangesOverMap(pass, rs) {
						return true
					}
					checkMapRangeBody(pass, body, rs)
					return true
				})
			}
		}
	}
	return a
}

// rangesOverMap reports whether rs iterates a map — directly, or via a
// maps.Keys/maps.Values iterator, which inherits the same randomized
// order.
func rangesOverMap(pass *Pass, rs *ast.RangeStmt) bool {
	if t := pass.Info.TypeOf(rs.X); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return true
		}
	}
	if call, ok := rs.X.(*ast.CallExpr); ok {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
				fn.Pkg().Path() == "maps" && (fn.Name() == "Keys" || fn.Name() == "Values") {
				return true
			}
		}
	}
	return false
}

func checkMapRangeBody(pass *Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkMapRangeCall(pass, enclosing, rs, n)
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rs, n)
		}
		return true
	})
}

func checkMapRangeCall(pass *Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt, call *ast.CallExpr) {
	// append(target, ...): order lands in the slice; fine only if the
	// target is loop-local or sorted later.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
		if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			target := call.Args[0]
			if declaredWithin(pass, target, rs) {
				return
			}
			if sortedLater(pass, enclosing, call, target) {
				return
			}
			pass.Reportf(call.Pos(), "append to %s inside map iteration collects elements in randomized order; sort it afterwards or annotate //mcvlint:allow <reason>", types.ExprString(target))
		}
		return
	}

	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, _ := fn.Type().(*types.Signature)

	// Package-level emitters: fmt.Fprint*/Print* write in iteration
	// order; there is no sorting after the bytes are out.
	if sig != nil && sig.Recv() == nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Fprint") || strings.HasPrefix(fn.Name(), "Print")) {
		pass.Reportf(call.Pos(), "fmt.%s inside map iteration emits in randomized order; iterate sorted keys instead or annotate //mcvlint:allow <reason>", fn.Name())
		return
	}

	// Method sinks: string/byte builders and encoders.
	if sig == nil || sig.Recv() == nil {
		return
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	qual := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	switch qual {
	case "strings.Builder", "bytes.Buffer":
		if strings.HasPrefix(fn.Name(), "Write") {
			pass.Reportf(call.Pos(), "%s.%s inside map iteration builds output in randomized order; iterate sorted keys instead or annotate //mcvlint:allow <reason>", qual, fn.Name())
		}
	case "encoding/json.Encoder", "encoding/gob.Encoder", "encoding/xml.Encoder":
		if fn.Name() == "Encode" {
			pass.Reportf(call.Pos(), "%s.Encode inside map iteration emits in randomized order; iterate sorted keys instead or annotate //mcvlint:allow <reason>", qual)
		}
	}
}

// checkMapRangeAssign flags order-dependent float accumulation: float
// addition does not associate, so `sum += v` over a map is a different
// number depending on visit order.
func checkMapRangeAssign(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt) {
	accumulating := false
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		accumulating = true
	case token.ASSIGN:
		// x = x + v (and x = v + x).
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok {
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					l := types.ExprString(as.Lhs[0])
					accumulating = types.ExprString(bin.X) == l || types.ExprString(bin.Y) == l
				}
			}
		}
	}
	if !accumulating || len(as.Lhs) != 1 {
		return
	}
	t := pass.Info.TypeOf(as.Lhs[0])
	if t == nil {
		return
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsFloat == 0 {
		return
	}
	if declaredWithin(pass, as.Lhs[0], rs) {
		return
	}
	pass.Reportf(as.Pos(), "float accumulation into %s inside map iteration is order-dependent (float addition does not associate); iterate sorted keys or annotate //mcvlint:allow <reason>", types.ExprString(as.Lhs[0]))
}

// declaredWithin reports whether expr's root variable is declared
// inside the range statement (loop-local state cannot leak iteration
// order).
func declaredWithin(pass *Pass, expr ast.Expr, rs *ast.RangeStmt) bool {
	obj := rootObject(pass, expr)
	return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
}

func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// sortedLater reports whether, after the append at call, the enclosing
// function calls a sorting function on the same target — the canonical
// collect-then-sort pattern. An argument is the target when its root
// variable is the target's, also under a type conversion
// (sort.Sort(byName(x))). Sorting functions are anything in
// package sort or slices, plus local helpers whose name contains "sort"
// (sortAddrs, sortKeys, ...).
func sortedLater(pass *Pass, enclosing *ast.BlockStmt, appendCall *ast.CallExpr, target ast.Expr) bool {
	want := rootObject(pass, target)
	if want == nil {
		return false
	}
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= appendCall.Pos() {
			return true
		}
		var callee *types.Func
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			callee, _ = pass.Info.Uses[fun.Sel].(*types.Func)
		case *ast.Ident:
			callee, _ = pass.Info.Uses[fun].(*types.Func)
		}
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch {
		case callee.Pkg().Path() == "sort" || callee.Pkg().Path() == "slices":
		case strings.Contains(strings.ToLower(callee.Name()), "sort"):
		default:
			return true
		}
		for _, arg := range call.Args {
			if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 && pass.Info.Types[conv.Fun].IsType() {
				arg = conv.Args[0]
			}
			if rootObject(pass, arg) == want {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// rootObject returns the variable expr's root identifier denotes, or
// nil if it has none.
func rootObject(pass *Pass, expr ast.Expr) types.Object {
	if id := rootIdent(expr); id != nil {
		return pass.Info.ObjectOf(id)
	}
	return nil
}
