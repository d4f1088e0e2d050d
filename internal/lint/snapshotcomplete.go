package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// SnapshotComplete makes "new struct field without a codec change" a build
// failure instead of a silent determinism bug. Codec functions declare the
// struct types they serialize:
//
//	//eagletree:snapshot encode flash.ArrayState flash.BlockColumns
//	func (e *enc) array(a *flash.ArrayState) { ... }
//
// For every declared type, every field must be referenced (a field selector,
// or a composite-literal key) by at least one encode-annotated function AND
// at least one decode-annotated function in the package. A field that is
// deliberately not serialized is excluded inline: `T[-Transient]`.
//
// The check is per package: the snapshot codec sees foreign state structs
// through their exported fields, which is exactly the set it can serialize.
var SnapshotComplete = &Analyzer{
	Name: "snapshotcomplete",
	Doc:  "every field of a snapshot-serialized struct must be touched by both its encode and decode paths",
	Run:  runSnapshotComplete,
}

// snapshotDecl is one `//eagletree:snapshot side T...` annotation target.
type snapshotDecl struct {
	fn      *ast.FuncDecl
	typ     *types.Named
	skipped map[string]bool // fields excluded via T[-Field]
}

func runSnapshotComplete(pass *Pass) {
	var encodes, decodes []snapshotDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, args := range funcDirectives(fd, directiveSnapshot) {
				if len(args) < 2 {
					pass.Reportf(fd.Pos(), "malformed %s directive: want 'encode|decode Type...'", directiveSnapshot)
					continue
				}
				side := args[0]
				if side != "encode" && side != "decode" {
					pass.Reportf(fd.Pos(), "malformed %s directive: side %q, want encode or decode", directiveSnapshot, side)
					continue
				}
				for _, spec := range args[1:] {
					d, err := resolveSnapshotType(pass, f, fd, spec)
					if err != "" {
						pass.Reportf(fd.Pos(), "%s", err)
						continue
					}
					if side == "encode" {
						encodes = append(encodes, d)
					} else {
						decodes = append(decodes, d)
					}
				}
			}
		}
	}
	if len(encodes) == 0 && len(decodes) == 0 {
		return
	}

	encCover := coverage(pass, encodes)
	decCover := coverage(pass, decodes)
	checkSides(pass, encodes, decCover, "decode")
	checkSides(pass, decodes, encCover, "encode")
	reportMissing(pass, encodes, encCover, "encode")
	reportMissing(pass, decodes, decCover, "decode")
}

// resolveSnapshotType parses one "pkg.Type[-Skip,-Skip2]" spec against the
// file's imports and the package scope.
func resolveSnapshotType(pass *Pass, f *ast.File, fd *ast.FuncDecl, spec string) (snapshotDecl, string) {
	d := snapshotDecl{fn: fd, skipped: map[string]bool{}}
	name := spec
	if i := strings.IndexByte(spec, '['); i >= 0 {
		if !strings.HasSuffix(spec, "]") {
			return d, "malformed snapshot type " + spec + ": unterminated field exclusion"
		}
		name = spec[:i]
		for _, ex := range strings.Split(spec[i+1:len(spec)-1], ",") {
			ex = strings.TrimSpace(ex)
			if !strings.HasPrefix(ex, "-") {
				return d, "malformed snapshot field exclusion " + ex + ": want -Field"
			}
			d.skipped[ex[1:]] = true
		}
	}

	var obj types.Object
	if pkgName, typeName, ok := strings.Cut(name, "."); ok {
		imported := importedPackage(pass, f, pkgName)
		if imported == nil {
			return d, "snapshot type " + name + ": package " + pkgName + " is not imported in this file"
		}
		obj = imported.Scope().Lookup(typeName)
	} else {
		obj = pass.Pkg.Scope().Lookup(name)
	}
	if obj == nil {
		return d, "snapshot type " + name + ": not found"
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return d, "snapshot type " + name + ": not a named type"
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return d, "snapshot type " + name + ": not a struct"
	}
	d.typ = named
	return d, ""
}

// importedPackage finds the imported package the file refers to as pkgName.
func importedPackage(pass *Pass, f *ast.File, pkgName string) *types.Package {
	for _, imp := range f.Imports {
		var obj types.Object
		if imp.Name != nil {
			obj = pass.Info.Defs[imp.Name]
		} else {
			obj = pass.Info.Implicits[imp]
		}
		if pn, ok := obj.(*types.PkgName); ok && pn.Name() == pkgName {
			return pn.Imported()
		}
	}
	return nil
}

// coverage computes, for each annotated type, the set of its fields that the
// annotated functions reference — through field selectors (reads, writes,
// &f.X) or composite-literal keys. An unkeyed composite literal covers every
// field by construction.
func coverage(pass *Pass, decls []snapshotDecl) map[*types.Named]map[string]bool {
	byType := map[*types.Named]map[string]bool{}
	fields := map[*types.Named]map[*types.Var]string{}
	for _, d := range decls {
		if byType[d.typ] == nil {
			byType[d.typ] = map[string]bool{}
			fields[d.typ] = map[*types.Var]string{}
			st := d.typ.Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				fields[d.typ][st.Field(i)] = st.Field(i).Name()
			}
		}
	}
	// References are credited to every tracked type on the side, whichever
	// annotated function they appear in: nested-state fields are naturally
	// touched by the parent codec function. Inspect each function once.
	seenFn := map[*ast.FuncDecl]bool{}
	for _, d := range decls {
		if seenFn[d.fn] {
			continue
		}
		seenFn[d.fn] = true
		ast.Inspect(d.fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel, ok := pass.Info.Selections[n]
				if !ok || sel.Kind() != types.FieldVal {
					return true
				}
				for typ, fs := range fields {
					if name, ok := fs[sel.Obj().(*types.Var)]; ok {
						byType[typ][name] = true
					}
				}
			case *ast.CompositeLit:
				tv, ok := pass.Info.Types[n]
				if !ok {
					return true
				}
				named := namedOf(tv.Type)
				if named == nil {
					return true
				}
				cover2, tracked := byType[named]
				if !tracked {
					return true
				}
				if len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						// Positional literals must list every field.
						st := named.Underlying().(*types.Struct)
						for i := 0; i < st.NumFields(); i++ {
							cover2[st.Field(i).Name()] = true
						}
						return true
					}
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := ast.Unparen(kv.Key).(*ast.Ident); ok {
						cover2[key.Name] = true
					}
				}
			}
			return true
		})
	}
	return byType
}

// namedOf unwraps pointers down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// checkSides reports types annotated on one side with no codec on the other.
func checkSides(pass *Pass, decls []snapshotDecl, other map[*types.Named]map[string]bool, otherName string) {
	seen := map[*types.Named]bool{}
	for _, d := range decls {
		if seen[d.typ] {
			continue
		}
		seen[d.typ] = true
		if _, ok := other[d.typ]; !ok {
			pass.Reportf(d.fn.Pos(), "snapshot type %s has no %s path: annotate its %s function with %s %s %s",
				typeName(pass, d.typ), otherName, otherName, directiveSnapshot, otherName, typeName(pass, d.typ))
		}
	}
}

// reportMissing flags fields of each annotated type that no function on the
// side references, honoring per-declaration exclusions.
func reportMissing(pass *Pass, decls []snapshotDecl, cover map[*types.Named]map[string]bool, side string) {
	// A field excluded by any declaration of the type is excluded for the
	// type: exclusions are written once, at the primary codec function.
	skipped := map[*types.Named]map[string]bool{}
	first := map[*types.Named]*ast.FuncDecl{}
	for _, d := range decls {
		if skipped[d.typ] == nil {
			skipped[d.typ] = map[string]bool{}
			first[d.typ] = d.fn
		}
		for f := range d.skipped {
			skipped[d.typ][f] = true
		}
	}
	for typ, cov := range cover {
		st := typ.Underlying().(*types.Struct)
		var missing []string
		for i := 0; i < st.NumFields(); i++ {
			name := st.Field(i).Name()
			if !cov[name] && !skipped[typ][name] {
				missing = append(missing, name)
			}
		}
		if len(missing) == 0 {
			continue
		}
		sort.Strings(missing)
		pass.Reportf(first[typ].Pos(), "snapshot %s path for %s misses field(s) %s: serialize them or exclude with %s[-%s]",
			side, typeName(pass, typ), strings.Join(missing, ", "), typeName(pass, typ), strings.Join(missing, ",-"))
	}
}

// typeName renders a type relative to the analyzed package.
func typeName(pass *Pass, t types.Type) string {
	return types.TypeString(t, types.RelativeTo(pass.Pkg))
}
