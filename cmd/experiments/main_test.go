package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// captureRun executes run(id) with stdout captured.
func captureRun(t *testing.T, id string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := run(id)
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// TestFastExperiments runs every experiment except the slow scaling sweep
// and checks for the expected artefact markers.
func TestFastExperiments(t *testing.T) {
	wants := map[string][]string{
		"f6":          {"<<Component>>", "MTBF:Real"},
		"f7":          {"<<NetworkDevice>>", "Communication"},
		"f8":          {"C6500", "61320", "Comp", "3000"},
		"f9":          {"31 instances, 31 links", "printS:Server -- d4:C2960"},
		"f10":         {"stage 5: [Send documents]"},
		"t1":          {"Request printing", "printS"},
		"f3":          {"<servicemapping>", "round trip: 5 pairs"},
		"context":     {"metamodel.uml", "paths.ctx"},
		"paths":       {"t1—e1—d1—c1—d4—printS", "2 paths"},
		"f11":         {"matches paper node set: true"},
		"f12":         {"matches paper node set: true"},
		"avail":       {"t1 → p2", "0.99"},
		"rbd":         {"[parallel]", "RBD model materialised"},
		"importance":  {"single points of failure", "Fussell–Vesely"},
		"qos":         {"throughput", "responsiveness"},
		"dynamicity":  {"user mobility", "perceived-infrastructure diff"},
		"sensitivity": {"dA/dMTBF", "Comp"},
		"cloud":       {"fat-tree k=4", "valley-free"},
		"cache":       {"warm speedup", "singleflight: 16 goroutines, 1 computed, 15 reused"},
	}
	for id, markers := range wants {
		id, markers := id, markers
		t.Run(id, func(t *testing.T) {
			out, err := captureRun(t, id)
			if err != nil {
				t.Fatalf("run(%s): %v", id, err)
			}
			for _, m := range markers {
				if !strings.Contains(out, m) {
					t.Errorf("experiment %s missing marker %q in:\n%s", id, m, out)
				}
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := captureRun(t, "nonsense"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestExperimentListComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experimentsList() {
		if e.id == "" || e.title == "" || e.fn == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
	}
	if len(seen) != 24 {
		t.Errorf("experiments = %d, want 24", len(seen))
	}
}

// TestWhatIfSmoke runs the what-if benchmark in its CI shape: tiny windows,
// no artifact file. It guards the harness (workload construction, victim
// selection, both update paths), not the speedup figures.
func TestWhatIfSmoke(t *testing.T) {
	oldSmoke, oldOut := dependSmoke, whatifOut
	dependSmoke, whatifOut = true, ""
	defer func() { dependSmoke, whatifOut = oldSmoke, oldOut }()
	out, err := captureRun(t, "whatif")
	if err != nil {
		t.Fatalf("run(whatif): %v", err)
	}
	for _, m := range []string{"patch floor", "mesh n=8", "fat-tree k=4"} {
		if !strings.Contains(out, m) {
			t.Errorf("whatif output missing %q in:\n%s", m, out)
		}
	}
}

// TestWarmSmoke runs the warm-path benchmark in its CI shape: tiny windows,
// no artifact file. It guards the harness (corpus construction, both
// generate variants, the HTTP lane), not the speedup or allocation figures.
func TestWarmSmoke(t *testing.T) {
	oldSmoke, oldOut := dependSmoke, warmOut
	dependSmoke, warmOut = true, ""
	defer func() { dependSmoke, warmOut = oldSmoke, oldOut }()
	out, err := captureRun(t, "warm")
	if err != nil {
		t.Fatalf("run(warm): %v", err)
	}
	for _, m := range []string{"cold-generate floor", "fat-tree k=8 scatter", "/api/v1/availability"} {
		if !strings.Contains(out, m) {
			t.Errorf("warm output missing %q in:\n%s", m, out)
		}
	}
}

// TestKBestSmoke runs the k-best benchmark in its CI shape: tiny meshes, a
// shrunk hard limit, no artifact file. It guards the harness (both variants,
// the limit-trip check, the work-budget probe), not the latency figures.
func TestKBestSmoke(t *testing.T) {
	oldSmoke, oldOut := dependSmoke, kbestOut
	dependSmoke, kbestOut = true, ""
	defer func() { dependSmoke, kbestOut = oldSmoke, oldOut }()
	out, err := captureRun(t, "kbest")
	if err != nil {
		t.Fatalf("run(kbest): %v", err)
	}
	for _, m := range []string{"enumeration tripped hard limit", "k-best latency bound", "kind=kbest"} {
		if !strings.Contains(out, m) {
			t.Errorf("kbest output missing %q in:\n%s", m, out)
		}
	}
}
