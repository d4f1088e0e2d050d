package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eagletree/internal/experiment"
	"eagletree/internal/spec"
)

var updateGolden = flag.Bool("update-cli-golden", false, "rewrite the CLI help golden files")

// checkGolden compares got against testdata/name, rewriting the file when the
// test binary runs with -args -update-cli-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v — regenerate with -args -update-cli-golden", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s — regenerate with -args -update-cli-golden\ngot:\n%s", path, got)
	}
}

// TestRunHelpGolden pins the generated `eagletree run` help text — the
// component choices and docs rendered from the registry — to a golden file.
// Registering a new component (or editing a doc string) changes the help, so
// this test fails until the golden is regenerated with
//
//	go test ./internal/cli -run TestRunHelpGolden -args -update-cli-golden
//
// which is exactly the reminder that the CLI surface is registry-generated.
func TestRunHelpGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"run", "-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run -h exited %d, want 2 (flag.ErrHelp)", code)
	}
	checkGolden(t, "help-run.golden", stderr.String())
}

// TestUsageGolden pins the top-level command index, and TestSweepHelpGolden /
// TestWorkerHelpGolden pin the distributed-sweep flag surfaces, so a flag
// rename or help-text edit is a reviewed diff rather than a silent drift.
func TestUsageGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"help"}, &stdout, &stderr); code != 0 {
		t.Fatalf("help exited %d, want 0", code)
	}
	checkGolden(t, "help-usage.golden", stdout.String())
}

func TestSweepHelpGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"sweep", "-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("sweep -h exited %d, want 2 (flag.ErrHelp)", code)
	}
	checkGolden(t, "help-sweep.golden", stderr.String())
}

func TestWorkerHelpGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"worker", "-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("worker -h exited %d, want 2 (flag.ErrHelp)", code)
	}
	checkGolden(t, "help-worker.golden", stderr.String())
}

// TestResultsHelpGolden pins the result-store query surface: the query and
// diff flag sets are the public contract of the persisted-rows feature.
func TestResultsHelpGolden(t *testing.T) {
	var all bytes.Buffer
	for _, sub := range []string{"ls", "query", "diff"} {
		var stdout, stderr bytes.Buffer
		if code := Main([]string{"results", sub, "-h"}, &stdout, &stderr); code != 2 {
			t.Fatalf("results %s -h exited %d, want 2 (flag.ErrHelp)", sub, code)
		}
		all.WriteString(stderr.String())
	}
	checkGolden(t, "help-results.golden", all.String())
}

// TestRunHelpCoversRegistry: every registered component name of every kind
// the run flags expose appears in the generated help — automatically, with
// no CLI edit.
func TestRunHelpCoversRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	Main([]string{"run", "-h"}, &stdout, &stderr)
	help := stderr.String()
	for _, kind := range []spec.Kind{
		spec.KindPolicy, spec.KindAllocator, spec.KindGCPolicy, spec.KindWL,
		spec.KindDetector, spec.KindMapping, spec.KindTiming, spec.KindOSPolicy,
		spec.KindThread,
	} {
		for _, name := range spec.Names(kind) {
			if !strings.Contains(help, name) {
				t.Errorf("registered %s component %q missing from generated run help", kind, name)
			}
		}
	}
}

// TestSpecMarkdownFresh: the committed SPEC.md is exactly what the generator
// renders from the live registry (the CI gate regenerates and diffs; this is
// the same check as a test).
func TestSpecMarkdownFresh(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "SPEC.md"))
	if err != nil {
		t.Fatalf("%v — regenerate with: go run ./cmd/eagletree doc -o SPEC.md", err)
	}
	if got := spec.Markdown(); got != string(want) {
		t.Error("SPEC.md is stale — regenerate with: go run ./cmd/eagletree doc -o SPEC.md")
	}
}

// TestParseRef: the compact component syntax parses typed parameters per the
// registry declaration and rejects unknown names and fields with the spec
// package's typed errors.
func TestParseRef(t *testing.T) {
	ref, err := parseRef(spec.KindPolicy, "deadline:read_deadline=2ms,max_consecutive_overdue=4,fallback=priority")
	if err != nil {
		t.Fatal(err)
	}
	if ref.Params["read_deadline"] != "2ms" {
		t.Errorf("duration param: %#v", ref.Params["read_deadline"])
	}
	if ref.Params["max_consecutive_overdue"] != int64(4) {
		t.Errorf("int param: %#v", ref.Params["max_consecutive_overdue"])
	}
	if _, err := parseRef(spec.KindPolicy, "nonsense"); err == nil {
		t.Error("unknown component accepted")
	}
	if _, err := parseRef(spec.KindPolicy, "priority:bogus=1"); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := parseRef(spec.KindThread, "randwrite:count=2*n,depth=8"); err != nil {
		t.Errorf("expression parameter rejected: %v", err)
	}

	// Enum values are checked when the component is built, not at flag parse
	// (ValidateRef never invokes side-effectful factories): a bad value still
	// fails before any simulation, at document validation.
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"run", "-policy", "priority:prefer=sideways", "-blocks", "32", "-pages", "16",
		"-dump-spec", filepath.Join(t.TempDir(), "x.json")}, &stdout, &stderr); code == 0 {
		t.Error("bad enum value survived document validation")
	} else if !strings.Contains(stderr.String(), "prefer") {
		t.Errorf("enum failure lacks context: %s", stderr.String())
	}
}

// TestOpenImpliesTagHonoring: with the open interface on, the historical
// flag semantics hold — no -policy means the tag-honoring priority policy,
// and an explicit priority policy gets use_tags defaulted on unless the user
// spelled it out.
func TestOpenImpliesTagHonoring(t *testing.T) {
	build := func(args ...string) map[string]any {
		fs := flag.NewFlagSet("t", flag.PanicOnError)
		cfgF := addConfigFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		cs := cfgF.configSpec()
		if cs.Policy.Name != "priority" {
			t.Fatalf("args %v: policy %q, want priority", args, cs.Policy.Name)
		}
		return cs.Policy.Params
	}
	if p := build("-open"); p["use_tags"] != true {
		t.Errorf("-open default policy: use_tags = %v", p["use_tags"])
	}
	if p := build("-open", "-policy", "priority:prefer=reads"); p["use_tags"] != true {
		t.Errorf("-open with explicit priority policy: use_tags = %v, want defaulted true", p["use_tags"])
	}
	if p := build("-open", "-policy", "priority:prefer=reads,use_tags=false"); p["use_tags"] != false {
		t.Errorf("explicit use_tags=false overridden: %v", p["use_tags"])
	}
}

// TestCLIDumpSpecRoundTrip: `run -dump-spec` then `spec FILE` reproduces the
// run bit for bit past the header line — by construction, since both drive
// the identical document path.
func TestCLIDumpSpecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specFile := filepath.Join(dir, "run.json")
	flags := []string{"-blocks", "32", "-pages", "16", "-workload", "mix", "-count", "500", "-prepare"}

	var direct, dump, fromSpec bytes.Buffer
	var stderr bytes.Buffer
	if code := Main(append([]string{"run"}, flags...), &direct, &stderr); code != 0 {
		t.Fatalf("run failed (%d): %s", code, stderr.String())
	}
	if code := Main(append([]string{"run"}, append(flags, "-dump-spec", specFile)...), &dump, &stderr); code != 0 {
		t.Fatalf("dump-spec failed (%d): %s", code, stderr.String())
	}
	if code := Main([]string{"spec", specFile}, &fromSpec, &stderr); code != 0 {
		t.Fatalf("spec run failed (%d): %s", code, stderr.String())
	}
	tail := func(s string) string {
		if i := strings.IndexByte(s, '\n'); i >= 0 {
			return s[i+1:]
		}
		return s
	}
	if tail(direct.String()) != tail(fromSpec.String()) {
		t.Errorf("spec-driven run differs from flag-driven run:\nflags:\n%s\nspec:\n%s", direct.String(), fromSpec.String())
	}
}

// TestListIncludesGridCounts: the index prints expanded variant counts, so
// the E12 grid document shows its 9 combinations.
func TestListIncludesGridCounts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("list failed: %s", stderr.String())
	}
	for _, row := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(row, "E12") && !strings.Contains(row, " 9 ") {
			t.Errorf("E12 grid not expanded in the index: %q", row)
		}
	}
}

func TestGameHelpGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"game", "-h"}, &stdout, &stderr); code != 2 {
		t.Fatalf("game -h exited %d, want 2 (flag.ErrHelp)", code)
	}
	checkGolden(t, "help-game.golden", stderr.String())
}

// TestGameRanksGuess: the game subcommand runs the embedded E12 document and
// ranks the guess against all nine combinations.
func TestGameRanksGuess(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"game", "-prefer", "reads", "-internal", "last", "-reveal"}, &stdout, &stderr); code != 0 {
		t.Fatalf("game failed (%d): %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"   9  ", // the whole design space is revealed
		"prefer=reads,internal=last   <- your guess",
		"your guess:  prefer=reads,internal=last (score ",
		"optimum:     prefer=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("game output lacks %q:\n%s", want, out)
		}
	}
	stdout.Reset()
	if code := Main([]string{"game", "-prefer", "sideways"}, &stdout, &stderr); code != 1 {
		t.Errorf("a guess outside the design space exited %d, want 1", code)
	}
}

// TestFlagOnlyInvocationIsUsageError: the pre-subcommand form
// ('eagletree -workload mix') is no longer forwarded to run.
func TestFlagOnlyInvocationIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-workload", "mix"}, &stdout, &stderr); code != 2 {
		t.Fatalf("flag-only invocation exited %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "Usage: eagletree <command>") {
		t.Errorf("want the usage text on stderr and nothing on stdout; stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

// TestSweepRejectsUnknownSelectors: every -run selector must name an
// experiment (regression: "e3,e99" ran E3 and silently dropped e99). The
// error names each unmatched selector and nothing runs.
func TestSweepRejectsUnknownSelectors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main([]string{"sweep", "-run", "e3,e99,E2-sched-policy,bogus", "-progress=false"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("sweep with unknown selectors exited %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("experiments ran despite unknown selectors:\n%s", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "e99") || !strings.Contains(msg, "bogus") || strings.Contains(msg, "e3") {
		t.Errorf("error should name exactly the unmatched selectors e99 and bogus: %s", msg)
	}
}

// TestScaleFlagRejectsTypos: -scale accepts small and full only (regression:
// "ful" and "Full" silently meant small), in every command that takes it.
func TestScaleFlagRejectsTypos(t *testing.T) {
	for _, bad := range []string{"ful", "Full", ""} {
		for _, cmd := range [][]string{{"sweep", "-run", "e9"}, {"list"}, {"game"}} {
			var stdout, stderr bytes.Buffer
			args := append(append([]string{}, cmd...), "-scale", bad)
			if code := Main(args, &stdout, &stderr); code != 1 {
				t.Errorf("%v exited %d, want 1", args, code)
			}
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), "want small or full") {
				t.Errorf("%v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
			}
		}
	}
	for name, want := range map[string]experiment.Scale{"small": experiment.Small, "full": experiment.Full} {
		if got, err := parseScale(name); err != nil || got != want {
			t.Errorf("parseScale(%q) = %v, %v", name, got, err)
		}
	}
}
