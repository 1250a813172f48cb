package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// NewWiretags returns the wiretags analyzer, scoped to the wire
// packages (the ones whose structs cross process boundaries as JSON:
// fleet shard results, core specs, service API types, the
// stats/obs aggregates that ride them). A struct there opts into the
// wire by tagging at least one field with a json tag; once it has, the
// contract is total:
//
//   - every exported field carries an explicit json tag — field-name
//     default encoding makes a rename a silent wire break, and an
//     untagged addition changes bytes the equivalence suite diffs;
//   - every `json:"-"` field carries a doc or line comment saying why
//     it is excluded (the PR 7/8 convention: merge-only operator
//     telemetry never enters CanonicalBytes).
//
// Untagged embedded struct fields are exempt: embedding is the
// explicit JSON-inlining idiom, the embedded type's own fields carry
// the tags, and renaming the embedded type does not move any wire
// name.
func NewWiretags(wire func(path string) bool) *Analyzer {
	a := &Analyzer{
		Name: "wiretags",
		Doc: "exported fields of wire structs (any struct with a json-tagged field in a wire " +
			"package) need explicit json tags; json:\"-\" fields need a comment explaining the exclusion",
	}
	a.Run = func(pass *Pass) {
		if !wire(pass.Path) {
			return
		}
		for _, f := range pass.Files {
			if isTestFile(pass, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				checkWireStruct(pass, ts.Name.Name, st)
				return true
			})
		}
	}
	return a
}

func checkWireStruct(pass *Pass, typeName string, st *ast.StructType) {
	// The struct self-identifies as wire by tagging any field.
	isWire := false
	for _, f := range st.Fields.List {
		if _, ok := jsonTag(f); ok {
			isWire = true
			break
		}
	}
	if !isWire {
		return
	}
	for _, f := range st.Fields.List {
		tag, hasTag := jsonTag(f)
		if hasTag && strings.Split(tag, ",")[0] == "-" && tag != "-," {
			// Only a doc comment above the field counts — that is where
			// this codebase documents merge-only exclusions.
			if f.Doc == nil {
				pass.Reportf(f.Pos(), "wire struct %s excludes field %s from its encoding (json:\"-\") without a doc comment; document why it stays off the wire", typeName, fieldName(f))
			}
			continue
		}
		if hasTag {
			continue
		}
		if len(f.Names) == 0 && embedsStruct(pass, f) {
			continue // JSON inlining: the embedded type's fields carry the tags
		}
		for _, name := range fieldIdents(f) {
			if name.IsExported() {
				pass.Reportf(name.Pos(), "exported field %s.%s of wire struct has no json tag; tag it explicitly (or json:\"-\" with a comment) so the wire encoding cannot drift with a rename", typeName, name.Name)
			}
		}
	}
}

// embedsStruct reports whether the anonymous field f embeds a struct
// (whose fields JSON inlines) rather than a leaf type (which would
// marshal under the embedded type's name).
func embedsStruct(pass *Pass, f *ast.Field) bool {
	t := pass.Info.TypeOf(f.Type)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Struct)
	return ok
}

// fieldIdents returns the field's declared names, or the embedded type
// name for anonymous fields.
func fieldIdents(f *ast.Field) []*ast.Ident {
	if len(f.Names) > 0 {
		return f.Names
	}
	// Embedded field: the type name is the field name.
	expr := f.Type
	if se, ok := expr.(*ast.StarExpr); ok {
		expr = se.X
	}
	switch e := expr.(type) {
	case *ast.Ident:
		return []*ast.Ident{e}
	case *ast.SelectorExpr:
		return []*ast.Ident{e.Sel}
	}
	return nil
}

func fieldName(f *ast.Field) string {
	ids := fieldIdents(f)
	if len(ids) == 0 {
		return "_"
	}
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = id.Name
	}
	return strings.Join(names, ", ")
}

func jsonTag(f *ast.Field) (string, bool) {
	if f.Tag == nil {
		return "", false
	}
	raw, err := strconv.Unquote(f.Tag.Value)
	if err != nil {
		return "", false
	}
	return reflect.StructTag(raw).Lookup("json")
}
