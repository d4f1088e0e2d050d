package binfmt

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// framingCalls are the encoding/binary readers a binary format would use to
// frame itself; outside this package a format reads through Reader instead.
var framingCalls = map[string]bool{"Uvarint": true, "Varint": true, "ReadUvarint": true, "ReadVarint": true}

// TestFramingOnlyInBinfmt holds DESIGN.md's rule for binary formats: outside
// internal/binfmt, no non-test file of the module imports hash/crc32 or
// calls encoding/binary's varint readers. Directories with their own go.mod
// are other modules and are skipped, as is testdata.
func TestFramingOnlyInBinfmt(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root: %v", err)
	}
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if path == self || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		files++
		for _, v := range framingUses(t, path) {
			rel, _ := filepath.Rel(root, path)
			t.Errorf("%s:%s: binary framing belongs in internal/binfmt", rel, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d files under %s", files, root)
	}
}

// framingUses lists the positions and names of a file's framing uses.
func framingUses(t *testing.T, path string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	binaryName := ""
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		switch p {
		case "hash/crc32":
			found = append(found, fmt.Sprintf("%d: imports hash/crc32", fset.Position(imp.Pos()).Line))
		case "encoding/binary":
			binaryName = "binary"
			if imp.Name != nil {
				binaryName = imp.Name.Name
			}
		}
	}
	if binaryName == "" {
		return found
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == binaryName && framingCalls[sel.Sel.Name] {
			found = append(found, fmt.Sprintf("%d: binary.%s", fset.Position(sel.Pos()).Line, sel.Sel.Name))
		}
		return true
	})
	return found
}
