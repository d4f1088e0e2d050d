package cli

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// preparedFlags select a small prepared single run: GC debt from the
// preparation is still owed when the measured window opens, so a flow that
// measures before the prepared device drains reports different numbers.
var preparedFlags = []string{"-blocks", "32", "-pages", "16", "-workload", "mix", "-count", "500"}

// pastHeader drops a single run's first line, which names the command.
func pastHeader(s string) string {
	_, rest, _ := strings.Cut(s, "\n")
	return rest
}

// dumpPrepared writes the prepared single-run document for preparedFlags.
func dumpPrepared(t *testing.T) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "prepared.json")
	runCLI(t, 0, append(append([]string{"run"}, preparedFlags...), "-prepare", "-dump-spec", file)...)
	return file
}

// reportColumns reads, from a single run's report, every column a sweep's
// CSV also prints, as the report formats it.
func reportColumns(t *testing.T, report string) map[string]string {
	t.Helper()
	cols := map[string]string{}
	find := func(pattern string, names ...string) {
		m := regexp.MustCompile(pattern).FindStringSubmatch(report)
		if m == nil {
			t.Fatalf("report has no %q:\n%s", pattern, report)
		}
		for i, name := range names {
			cols[name] = m[i+1]
		}
	}
	find(`throughput +(\d+) IOPS`, "throughput_iops")
	find(`read latency +n=\d+ +mean=([\d.]+)us +std=([\d.]+)us +p99=([\d.]+)us`, "read_mean_us", "read_std_us", "read_p99_us")
	find(`write latency +n=\d+ +mean=([\d.]+)us +std=([\d.]+)us +p99=([\d.]+)us`, "write_mean_us", "write_std_us", "write_p99_us")
	find(`write amp +([\d.]+)`, "write_amp")
	find(`gc +(\d+) pages migrated`, "gc_pages")
	find(`erase counts \[(\d+), (\d+)\]`, "min_erase", "max_erase")
	lo, _ := strconv.Atoi(cols["min_erase"])
	hi, _ := strconv.Atoi(cols["max_erase"])
	cols["wear_spread"] = strconv.Itoa(hi - lo)
	return cols
}

// csvColumns reads the one row of a sweep's CSV, each value formatted at the
// precision the single-run report prints it.
func csvColumns(t *testing.T, stdout string) map[string]string {
	t.Helper()
	i := strings.Index(stdout, "variant,x,")
	if i < 0 {
		t.Fatalf("sweep printed no CSV:\n%s", stdout)
	}
	lines := strings.Split(strings.TrimSpace(stdout[i:]), "\n")
	if len(lines) != 2 {
		t.Fatalf("want a header and one CSV row, got:\n%s", stdout[i:])
	}
	names, vals := strings.Split(lines[0], ","), strings.Split(lines[1], ",")
	precision := map[string]string{"throughput_iops": "%.0f", "write_amp": "%.3f", "gc_pages": "%.0f", "wear_spread": "%.0f"}
	cols := map[string]string{}
	for j, name := range names[2:] {
		v, err := strconv.ParseFloat(vals[j+2], 64)
		if err != nil {
			t.Fatalf("CSV column %s: %v", name, err)
		}
		format, ok := precision[name]
		if !ok {
			format = "%.3f" // latencies, in µs as the report's durations
		}
		cols[name] = fmt.Sprintf(format, v)
	}
	return cols
}

// TestSingleRunMatchesSweep: a prepared one-variant document measures the
// same device through `spec FILE` as through `sweep -spec FILE` — every
// column the sweep prints agrees with the single run's report — and
// `spec -state-cache` prepares through that cache, so a warm run restores
// the saved state and prints the same report.
func TestSingleRunMatchesSweep(t *testing.T) {
	file := dumpPrepared(t)
	single, _ := runCLI(t, 0, "spec", file)
	sweep, _ := runCLI(t, 0, "sweep", "-spec", file, "-csv", "-chart=false", "-progress=false")
	got, want := reportColumns(t, single), csvColumns(t, sweep)
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s: spec prints %s, sweep prints %s", name, got[name], v)
		}
	}

	cache := t.TempDir()
	cold, _ := runCLI(t, 0, "spec", "-state-cache", cache, file)
	states, err := filepath.Glob(filepath.Join(cache, "*.state"))
	if err != nil || len(states) != 1 {
		t.Fatalf("spec -state-cache saved %d prepared states (%v), want 1", len(states), err)
	}
	warm, _ := runCLI(t, 0, "spec", "-state-cache", cache, file)
	fresh, _ := runCLI(t, 0, "spec", "-fresh", file)
	if cold != single || warm != single || fresh != single {
		t.Errorf("cache-backed or fresh single runs differ from the default:\ndefault:\n%s\ncold:\n%s\nwarm:\n%s\nfresh:\n%s", single, cold, warm, fresh)
	}
}

// TestLoadStateMatchesPrepare: a device aged by `state save` and restored by
// `run -load-state` is the device `run -prepare` measures — the report is
// byte-identical past the header line.
func TestLoadStateMatchesPrepare(t *testing.T) {
	state := filepath.Join(t.TempDir(), "aged.state")
	runCLI(t, 0, "state", "save", state, "-blocks", "32", "-pages", "16")
	loaded, _ := runCLI(t, 0, append(append([]string{"run"}, preparedFlags...), "-load-state", state)...)
	prepared, _ := runCLI(t, 0, append(append([]string{"run"}, preparedFlags...), "-prepare")...)
	if pastHeader(loaded) != pastHeader(prepared) {
		t.Errorf("run -load-state differs from run -prepare:\nload-state:\n%s\nprepare:\n%s", loaded, prepared)
	}
}

// TestRecordPreparedRoundTrip: `record -prepare` measures what `run
// -prepare` measures, captures only the measured window's IOs, and its
// replay spec runs with the pinned hash verified.
func TestRecordPreparedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr, replay := filepath.Join(dir, "run.etb"), filepath.Join(dir, "replay.json")
	recorded, _ := runCLI(t, 0, append(append([]string{"record", "-o", tr, "-spec-out", replay}, preparedFlags...), "-prepare")...)
	prepared, _ := runCLI(t, 0, append(append([]string{"run"}, preparedFlags...), "-prepare")...)
	report, provenance, ok := strings.Cut(pastHeader(recorded), "\nrecorded ")
	if !ok {
		t.Fatalf("record printed no capture summary:\n%s", recorded)
	}
	if report != pastHeader(prepared) {
		t.Errorf("record -prepare differs from run -prepare:\nrecord:\n%s\nrun:\n%s", recorded, prepared)
	}
	if !strings.HasPrefix(provenance, "500 IOs ") {
		t.Errorf("capture holds other than the 500 measured IOs: recorded %s", provenance)
	}
	out, _ := runCLI(t, 0, "spec", replay)
	n := 0
	for _, m := range regexp.MustCompile(`latency +n=(\d+)`).FindAllStringSubmatch(out, -1) {
		k, _ := strconv.Atoi(m[1])
		n += k
	}
	if n != 500 {
		t.Errorf("replay completed %d IOs, want the trace's 500:\n%s", n, out)
	}
}
