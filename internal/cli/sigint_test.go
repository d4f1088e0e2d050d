package cli

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"eagletree/internal/experiment"
	"eagletree/internal/iface"
	"eagletree/internal/spec"
	"eagletree/internal/workload"
)

// sigintChildMarker is printed by the child once its hanging variant is
// running, so the parent knows signals will land inside runSweepGroups.
const sigintChildMarker = "SIGINT-CHILD-READY"

// hangingThread announces itself on stderr and then blocks forever.
type hangingThread struct{}

func (hangingThread) Init(*workload.Ctx) {
	fmt.Fprintln(os.Stderr, sigintChildMarker)
	select {}
}

func (hangingThread) OnComplete(*workload.Ctx, *iface.Request) {}

// runSigintChild drives runSweepGroups over a variant whose one thread
// blocks forever — a variant that can never drain, so only the
// second-interrupt hard exit can end the process. The thread type is
// registered here, in the child process only.
func runSigintChild() {
	spec.Register(spec.Component{Kind: spec.KindThread, Name: "test-hang",
		Doc:  "test only: blocks forever when it starts",
		Make: func(*spec.Params) (any, error) { return hangingThread{}, nil }})
	def, err := experiment.FromSpec(spec.Experiment{
		Name: "hang",
		Base: spec.Config{
			Geometry:      spec.Geometry{Channels: 1, LUNsPerChannel: 1, BlocksPerLUN: 16, PagesPerBlock: 8, PageSize: 4096},
			Mapping:       spec.NamedRef("pagemap"),
			Overprovision: 0.15,
			GC:            spec.GCSpec{Greediness: 2},
			WL:            spec.NamedRef("off"),
			OS:            spec.OSSpec{QueueDepth: 8},
			Seed:          1,
		},
		Variants: []spec.Variant{{Label: "hang"}},
		Workload: []spec.Thread{{Type: "test-hang"}},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	no := false
	out := &sweepOutput{csv: &no, chart: &no, timeline: &no}
	os.Exit(runSweepGroups([][]sweepJob{{{def: def}}}, false, inProcess(experiment.Options{Workers: 1}), out, false, os.Stdout, os.Stderr))
}

// TestSweepSecondInterruptHardExits re-execs the test binary into a sweep
// whose only variant hangs forever, sends it two interrupts, and asserts the
// process hard-exits with code 130: the first ^C cancels gracefully (useless
// against a wedged variant), the second must always get the user their shell
// back.
func TestSweepSecondInterruptHardExits(t *testing.T) {
	if os.Getenv("EAGLETREE_SIGINT_CHILD") == "1" {
		runSigintChild()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSweepSecondInterruptHardExits$")
	cmd.Env = append(os.Environ(), "EAGLETREE_SIGINT_CHILD=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), sigintChildMarker) {
				ready <- nil
				break
			}
		}
		if err := sc.Err(); err != nil {
			ready <- err
		}
		// Keep draining so the child never blocks on a full stderr pipe.
		for sc.Scan() {
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			t.Fatalf("reading child stderr: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("child never reported its hanging variant as running")
	}

	// Two interrupts, spaced so both are delivered rather than coalesced.
	// The child's variant ignores the first (it cannot drain); the second
	// must hard-exit. Keep nudging in case a signal lands before the
	// handler is installed.
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	deadline := time.After(30 * time.Second)
	for {
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			break // process already gone
		}
		select {
		case err := <-waitErr:
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("child exit: %v, want an exit error with code 130", err)
			}
			if code := ee.ExitCode(); code != 130 {
				t.Fatalf("child exited %d, want 130", code)
			}
			return
		case <-deadline:
			t.Fatal("child survived repeated interrupts; second ^C must hard-exit")
		case <-time.After(200 * time.Millisecond):
		}
	}
	if err := <-waitErr; err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 130 {
			t.Fatalf("child exit: %v, want code 130", err)
		}
	}
}
