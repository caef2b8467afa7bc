// Command upsimbench is the end-to-end benchmark of upsimd: it generates a
// traffic mix from a seed, serves upsimd's handler behind a loopback
// listener in the same process, drives it with a closed and an open loop,
// checks every answer against an uncached reference, and prints every
// metric by name with its unit. With -trace 1 it instead replays the same
// request stream layer by layer and reports where a request's time goes.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 upsimbench/run.py --workload campus-hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// The exit code is 0 when every answer matched, 1 when any did not (the
// result line is still printed), and 2 when the run could not start.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload: campus-hot, campus-cold or sites-cold")
		seed     = flag.Uint64("seed", 1, "seed the requests are generated from")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		traceArg = flag.Int("trace", 0, "0: timed end-to-end run; 1: traced per-layer run")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory the traced run writes span trees to")
		corrupt  = flag.Bool("corrupt-reference", false, "flip one byte of one reference answer (self-check: the run must fail)")
	)
	flag.Parse()
	spec, ok := specFor(*name)
	if !ok || *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintf(os.Stderr, "upsimbench: need -workload (campus-hot, campus-cold or sites-cold), -seconds >= 1 and -trace 0 or 1\n")
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "upsimbench: workload %s seed %d, %ds, trace=%d, GOMAXPROCS=%d\n",
		spec.name, *seed, *seconds, *traceArg, runtime.GOMAXPROCS(0))

	w, chk, err := prepare(spec, *seed, *corrupt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upsimbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var out *result
	if *traceArg == 1 {
		out, err = runTraced(context.Background(), w, chk, *seed, d, *traceDir)
	} else {
		out, err = runTimed(w, chk, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "upsimbench:", err)
		os.Exit(2)
	}
	out.print(os.Stdout)
	if !out.Correct {
		os.Exit(1)
	}
}

// prepare generates the workload and the reference answer of every logical
// request.
func prepare(spec workloadSpec, seed uint64, corrupt bool) (*workload, *checker, error) {
	t0 := time.Now()
	w, err := spec.build(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("building %s: %w", spec.name, err)
	}
	w.rate = spec.rate
	chk, err := references(w)
	if err != nil {
		return nil, nil, err
	}
	if corrupt {
		ref := chk.refs[len(chk.refs)-1]
		ref[len(ref)/2] ^= 0x20
	}
	fmt.Fprintf(os.Stderr, "upsimbench: %d logical requests, %d encodings, references in %.2fs\n",
		len(w.logicals), len(w.encs), time.Since(t0).Seconds())
	return w, chk, nil
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are extra figures printed for people, not in the result line.
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("upsimbench: metric " + name + " is not in the catalogue")
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes one "name value unit" line per metric, the notes, and the
// JSON result as the last line.
func (r *result) print(f *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, "#", n)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(f, string(b))
}

// The timed run sets up from scratch at least minSetups and at most
// maxSetups times, repeating while the set-ups so far took less than
// setupBudget; setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 3 * time.Second
)

// runTimed is the end-to-end run: set up (handler, listener, warm-up pass)
// several times, then a closed loop for a quarter of the measured time and
// an open loop at the workload's fixed rate for the rest.
func runTimed(w *workload, chk *checker, seed uint64, d time.Duration) (*result, error) {
	out := &result{Metrics: map[string]metric{}}
	total := newTally()
	var (
		setups []float64
		spent  time.Duration
		tgt    *target
		cl     *client
	)
	for {
		t0 := time.Now()
		tg, err := startTarget(newHandler())
		if err != nil {
			return nil, err
		}
		c := newClient(tg.base)
		t := newTally()
		warmUp(c, chk, t)
		took := time.Since(t0)
		setups = append(setups, took.Seconds())
		spent += took
		total.add(t)
		if len(setups) >= maxSetups || (len(setups) >= minSetups && spent >= setupBudget) {
			tgt, cl = tg, c
			break
		}
		c.close()
		if err := tg.stop(); err != nil {
			return nil, err
		}
	}
	reconciled := true
	phase := func(name string, run func(t *tally)) error {
		before, err := waitIdle(cl.metrics)
		if err != nil {
			return err
		}
		t := newTally()
		run(t)
		after, err := waitIdle(cl.metrics)
		if err != nil {
			return err
		}
		if err := reconcile(delta(before, after), t); err != nil {
			reconciled = false
			out.note("%s: %v", name, err)
		}
		total.add(t)
		return nil
	}
	var windows []float64
	if err := phase("closed loop", func(t *tally) {
		windows = closedLoop(cl, chk, newStream(w, seed, purposeClosed), d/4, t)
	}); err != nil {
		return nil, err
	}
	var open openResult
	if err := phase("open loop", func(t *tally) {
		open = openLoop(cl, chk, newStream(w, seed, purposeOpen), w.rate, d-d/4, newRand(seed, purposeArrivals), t)
	}); err != nil {
		return nil, err
	}
	cl.close()
	if err := tgt.stop(); err != nil {
		return nil, err
	}
	heldMB := retainedMB(&tgt)

	ms := func(x time.Duration) float64 { return float64(x) / float64(time.Millisecond) }
	out.set(endToEnd, "setup_s", median(setups))
	out.set(endToEnd, "throughput_rps", median(windows))
	p50s, p99s := partQuantiles(open.latency, 0.5), partQuantiles(open.latency, 0.99)
	out.set(endToEnd, "latency_p50_ms", median(p50s))
	out.set(endToEnd, "latency_p99_ms", median(p99s))
	out.set(endToEnd, "heap_retained_mb", heldMB)
	out.Attempted, out.Failed = total.attempted, total.failed
	out.Correct = total.failed == 0 && reconciled
	out.note("error_ratio %.6g (%d failed of %d attempted: %d timeouts, %d wrong answers)",
		ratio(float64(total.failed), float64(total.attempted)), total.failed, total.attempted, total.timeouts, total.mismatch)
	out.note("setup_s runs %.3f s", setups)
	out.note("closed-loop windows %.0f req/s", windows)
	out.note("open-loop parts: p50 %.3f ms, p99 %.3f ms", p50s, p99s)
	out.note("open loop: %.0f req/s Poisson for %s, %d samples, generator late p99 %.3f ms",
		w.rate, d-d/4, len(open.latency), ms(durQuantile(open.late, 0.99)))
	if total.firstErr != "" {
		out.note("first failure: %s", total.firstErr)
	}
	return out, nil
}

// openParts is how many consecutive parts of the open loop a latency
// quantile is taken over at most; the reported figure is their median, so
// one stall of the shared machine moves one part, not the figure.
const openParts = 9

// tailSamples is the fewest samples a part holds when a quantile is taken
// over it: at least 20 beyond its 99th percentile.
const tailSamples = 2000

// partQuantiles returns the q-quantile, in ms, of each consecutive part of
// the latencies (in scheduled order): openParts parts, fewer when a part
// would hold less than tailSamples samples, and at least one.
func partQuantiles(lat []time.Duration, q float64) []float64 {
	n := max(1, min(openParts, len(lat)/tailSamples))
	parts := make([]float64, n)
	for i := range parts {
		part := lat[i*len(lat)/n : (i+1)*len(lat)/n]
		parts[i] = float64(durQuantile(part, q)) / float64(time.Millisecond)
	}
	return parts
}

// retainedMB is the live heap the handler holds once the run is over: the
// difference between the live heap with the stopped target still reachable
// and without it (caches, warm LRU, pooled generators).
func retainedMB(tgt **target) float64 {
	held := liveHeap()
	*tgt = nil
	return float64(held-liveHeap()) / (1 << 20)
}

// liveHeap forces collection (twice, so pooled objects drop too) and
// returns the bytes still allocated.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
