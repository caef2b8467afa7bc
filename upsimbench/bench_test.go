package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// heldOutSeed is a seed no tuning of this benchmark used.
const heldOutSeed = 20261017

func buildWorkload(t *testing.T, name string, seed uint64) *workload {
	t.Helper()
	spec, ok := specFor(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w, err := spec.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	w.rate = spec.rate
	return w
}

// streamDigest hashes the first n requests of a stream, bytes and all.
func streamDigest(w *workload, seed uint64, n int) [32]byte {
	h := sha256.New()
	s := newStream(w, seed, purposeClosed)
	for i := 0; i < n; i++ {
		e := &w.encs[s.next()]
		l := &w.logicals[e.logical]
		h.Write([]byte(l.method + " " + l.target + "\n"))
		h.Write(e.body)
		h.Write([]byte{0})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			a := streamDigest(buildWorkload(t, spec.name, 7), 7, 2000)
			b := streamDigest(buildWorkload(t, spec.name, 7), 7, 2000)
			if a != b {
				t.Fatal("seed 7 produced two different request streams")
			}
			if c := streamDigest(buildWorkload(t, spec.name, 8), 8, 2000); c == a {
				t.Fatal("seeds 7 and 8 produced the same request stream")
			}
		})
	}
}

// TestMixMatchesStatedShares draws a long stream and compares each mix
// class's share with the workload's stated one, within four binomial
// standard errors of the count it rests on.
func TestMixMatchesStatedShares(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			w := buildWorkload(t, spec.name, 1)
			// Round-based workloads fix their mix in the request table
			// (drawn once, len(logicals) entries); free draws in the stream.
			n := 40000
			if w.draw == nil {
				n = len(w.logicals)
			}
			s := newStream(w, 1, purposeClosed)
			got := map[string]float64{}
			for i := 0; i < n; i++ {
				got[w.encs[s.next()].class]++
			}
			for class, want := range spec.shares {
				share := got[class] / float64(n)
				tol := 4 * math.Sqrt(want*(1-want)/float64(n))
				if math.Abs(share-want) > tol {
					t.Errorf("%s: share %.4f, stated %.4f (tolerance %.4f)", class, share, want, tol)
				}
				delete(got, class)
			}
			for class, c := range got {
				t.Errorf("class %s (%.0f requests) has no stated share", class, c)
			}
		})
	}
}

// serveEverything sends every encoding of the workload to upsimd's handler
// (in memory, after the warm-up pass) and checks each answer.
func serveEverything(t *testing.T, name string, seed uint64) {
	spec, _ := specFor(name)
	w, chk, err := prepare(spec, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	h := newHandler()
	for pass, encs := range [][]encoding{w.encs[:len(w.logicals)], w.encs} {
		for i := range encs {
			e := &encs[i]
			l := &w.logicals[e.logical]
			status, body := serveMem(h, l.method, l.target, e.body)
			if !chk.ok(e.logical, status, body) {
				t.Fatalf("pass %d: %s %s: status %d, answer differs from the reference:\n%.400s",
					pass, l.method, l.target, status, body)
			}
		}
	}
}

func TestEveryRequestSucceeds(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) { serveEverything(t, spec.name, 1) })
	}
}

func TestHeldOutSeedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("held-out seed: long")
	}
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) { serveEverything(t, spec.name, heldOutSeed) })
	}
}

func TestWrongReferenceFailsTheRun(t *testing.T) {
	spec, _ := specFor("campus-hot")
	w, chk, err := prepare(spec, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runTimed(w, chk, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed == 0 {
		t.Fatalf("a corrupted reference went unnoticed: correct=%t failed=%d", out.Correct, out.Failed)
	}
}

func TestTimedRunReportsEveryEndToEndMetric(t *testing.T) {
	spec, _ := specFor("sites-cold")
	w, chk, err := prepare(spec, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runTimed(w, chk, 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("correct=%t attempted=%d failed=%d notes=%v", out.Correct, out.Attempted, out.Failed, out.notes)
	}
	for _, d := range endToEnd {
		m, ok := out.Metrics[d.name]
		if !ok || m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s: got %+v (present %t)", d.name, m, ok)
		}
	}
	if len(out.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(out.Metrics), len(endToEnd))
	}
}

// TestTracedRunAccountsForEveryMicrosecond checks the traced run's
// bookkeeping: every per-layer metric is reported, the layer self-shares
// plus the unaccounted remainder add up to the whole, and span trees are
// written.
func TestTracedRunAccountsForEveryMicrosecond(t *testing.T) {
	spec, _ := specFor("campus-cold")
	w, chk, err := prepare(spec, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out, err := runTraced(context.Background(), w, chk, 4, 2*time.Second, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Fatalf("correct=%t failed=%d notes=%v", out.Correct, out.Failed, out.notes)
	}
	for _, d := range perLayer {
		if _, ok := out.Metrics[d.name]; !ok {
			t.Errorf("missing per-layer metric %s", d.name)
		}
	}
	sum := out.Metrics["trace.unaccounted_share"].Value
	for _, m := range modules {
		sum += out.Metrics[m+".self_share"].Value
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("layer self-shares plus unaccounted add up to %v, want 1", sum)
	}
	spans, err := os.ReadFile(filepath.Join(dir, "campus-cold-seed4.spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"step7.pathdisc"`, `"avail.montecarlo"`, `"explain.attribution"`, `"core.pool_acquire"`} {
		if !strings.Contains(string(spans), name) {
			t.Errorf("span trees lack %s", name)
		}
	}
}

// benchmarkFile is BENCHMARK.json as far as this package checks it.
type benchmarkFile struct {
	Command  []string `json:"command"`
	Paths    []string `json:"paths"`
	Seconds  int      `json:"run_seconds"`
	Workload []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the workloads that hold steady, in catalogue
	// order; campus-hot stays runnable but is not among them (README.md
	// says why).
	next := 0
	for _, wl := range f.Workload {
		for next < len(workloads) && workloads[next].name != wl.Name {
			next++
		}
		if next == len(workloads) {
			t.Fatalf("workload %q is not in the catalogue, or out of its order", wl.Name)
		}
		if wl.Why != workloads[next].why {
			t.Errorf("workload %s: why %q, catalogue %q", wl.Name, wl.Why, workloads[next].why)
		}
		next++
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, catalogue has %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, catalogue %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, catalogue has %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v, catalogue %+v", i, m, d)
		}
	}
}

func TestReadmeDocumentsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !strings.Contains(string(b), "`"+d.name+"`") {
				t.Errorf("README.md does not document %s", d.name)
			}
		}
	}
	for _, spec := range workloads {
		if !strings.Contains(string(b), "`"+spec.name+"`") {
			t.Errorf("README.md does not document workload %s", spec.name)
		}
	}
}
