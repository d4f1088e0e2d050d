package experiment

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateVariantKeys = flag.Bool("update-variant-keys", false, "rewrite specs/variantkeys.txt")

// TestGoldenVariantKeys pins every suite document's CanonKeys, at both
// scales, to a committed SHA-256 of its compiled Definition's Keys — the
// keys stored rows record and fabric leases carry. A CanonKey drift is
// otherwise silent: every on-disk prepared-state cache misses, and a fabric
// handshake between two builds fails. Regenerate, only for an intended key
// change, with
//
//	go test ./internal/experiment -run TestGoldenVariantKeys -args -update-variant-keys
func TestGoldenVariantKeys(t *testing.T) {
	var b bytes.Buffer
	for _, sc := range []struct {
		name  string
		scale Scale
	}{{"small", Small}, {"full", Full}} {
		for _, e := range SuiteSpecs(sc.scale) {
			keys, err := compile(t, e).Keys()
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
			fmt.Fprintf(&b, "%s %s %d %x\n", sc.name, e.Name, len(keys), sum)
		}
	}
	path := filepath.Join("../../specs", "variantkeys.txt")
	if *updateVariantKeys {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — regenerate with -args -update-variant-keys", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("variant keys drifted from %s:\ngot:\n%swant:\n%s", path, b.Bytes(), want)
	}
}
