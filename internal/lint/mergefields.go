package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewMergefields returns the mergefields analyzer: for every
// merge-shaped method — a method named Merge*/Union* whose single
// parameter has the receiver's own type (stats.Fastpath.Merge,
// obs.Snapshot.Merge, ...) — every mergeable field of the type must be
// mentioned somewhere in the method, directly or via other methods of
// the same type it calls. "Added a counter, forgot
// to add it to Merge" is the bug class: the new field silently drops
// shard contributions and the merged totals go wrong only under
// distribution, where nothing crashes.
//
// Mergeable fields are the ones that carry accumulated state: numeric,
// slice, array, map, struct, and pointer-to-struct fields. Strings,
// bools, channels, funcs and interfaces are exempt (they are identity
// or plumbing, not tallies); a field that is deliberately not merged
// takes an //mcvlint:allow <reason> on its declaration.
func NewMergefields() *Analyzer {
	a := &Analyzer{
		Name: "mergefields",
		Doc: "every numeric/slice/struct field of a type with a Merge/Union-shaped method " +
			"must be read by that method (directly or via same-type helper methods)",
	}
	a.Run = func(pass *Pass) {
		methods := collectMethods(pass)
		for _, tm := range methods {
			for _, m := range tm.methods {
				if !mergeShaped(pass, tm.typ, m) {
					continue
				}
				reads := fieldReadClosure(pass, tm, m)
				st, ok := tm.typ.Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if !mergeableField(f.Type()) {
						continue
					}
					if reads[f] {
						continue
					}
					pass.Reportf(f.Pos(), "field %s.%s is never read by (%s).%s; merge it or annotate the field //mcvlint:allow <reason>",
						tm.typ.Obj().Name(), f.Name(), recvString(m), m.Name.Name)
				}
			}
		}
	}
	return a
}

// typeMethods groups one named type's methods declared in this package.
type typeMethods struct {
	typ     *types.Named
	methods []*ast.FuncDecl
}

func collectMethods(pass *Pass) map[*types.TypeName]*typeMethods {
	out := make(map[*types.TypeName]*typeMethods)
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			named := recvNamed(pass, fd)
			if named == nil {
				continue
			}
			tn := named.Obj()
			if out[tn] == nil {
				out[tn] = &typeMethods{typ: named}
			}
			out[tn].methods = append(out[tn].methods, fd)
		}
	}
	return out
}

func recvNamed(pass *Pass, fd *ast.FuncDecl) *types.Named {
	t := pass.Info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func recvString(fd *ast.FuncDecl) string {
	return types.ExprString(fd.Recv.List[0].Type)
}

// mergeShaped reports whether fd is a Merge/Union-shaped method of typ:
// named Merge* or Union*, taking exactly one parameter of type T or *T.
func mergeShaped(pass *Pass, typ *types.Named, fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	if !strings.HasPrefix(name, "Merge") && !strings.HasPrefix(name, "Union") {
		return false
	}
	params := fd.Type.Params
	if params == nil || len(params.List) != 1 || len(params.List[0].Names) > 1 {
		return false
	}
	pt := pass.Info.TypeOf(params.List[0].Type)
	if pt == nil {
		return false
	}
	if p, ok := pt.(*types.Pointer); ok {
		pt = p.Elem()
	}
	named, ok := pt.(*types.Named)
	return ok && named.Obj() == typ.Obj()
}

// mergeableField reports whether a field's type carries accumulated
// state that a merge must fold.
func mergeableField(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsNumeric != 0
	case *types.Slice, *types.Array, *types.Map, *types.Struct:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Struct)
		return ok
	}
	return false
}

// fieldReadClosure returns the set of typ's fields mentioned by m or,
// transitively, by any method of the same type that m's closure calls
// (obs.Snapshot.Merge reads every field only through Phase/set — the
// closure is what keeps that legal without annotations).
func fieldReadClosure(pass *Pass, tm *typeMethods, m *ast.FuncDecl) map[*types.Var]bool {
	byName := make(map[string]*ast.FuncDecl, len(tm.methods))
	for _, md := range tm.methods {
		byName[md.Name.Name] = md
	}
	ownFields := make(map[*types.Var]bool)
	if st, ok := tm.typ.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			ownFields[st.Field(i)] = true
		}
	}

	reads := make(map[*types.Var]bool)
	visited := make(map[string]bool)
	queue := []*ast.FuncDecl{m}
	visited[m.Name.Name] = true
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch obj := pass.Info.Uses[sel.Sel].(type) {
			case *types.Var:
				if ownFields[obj] {
					reads[obj] = true
				}
			case *types.Func:
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					if sameNamed(sig.Recv().Type(), tm.typ) && !visited[obj.Name()] {
						if callee := byName[obj.Name()]; callee != nil {
							visited[obj.Name()] = true
							queue = append(queue, callee)
						}
					}
				}
			}
			return true
		})
	}
	return reads
}

func sameNamed(t types.Type, want *types.Named) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == want.Obj()
}
