package main

// The traced run (-trace 1) gives the per-layer numbers. It replays one
// prefix of the workload's request stream several times on a single
// client, each pass from a fresh start followed by the warm-up pass, and
// reports no end-to-end figures:
//
//  1. handler pass: ServeHTTP on an in-memory writer. Server time per
//     route and outcome (warm hit, cache hit, miss), each request's outcome
//     classified from its /metrics counter deltas (exact with one client),
//     and runtime allocation.
//  2. layer pass: the serving path rebuilt from the program's public calls
//     (mirror.go) on its own cache and pool, twice side by side — once
//     with a span around every layer call (the program's own step5–step8,
//     avail.*, depend.compile and explain.* spans attach beneath them) and
//     once without. Self time per layer from the first; tracing overhead
//     as the difference between the two.
//  3. listener pass: the replay over the loopback listener; its latency
//     minus the handler time is the net/http overhead. A short open loop
//     on the same listener measures how late the load generator runs.
//
// The layer passes must answer byte for byte like the handler pass (up to
// the members normalize strips: the handler fans batch items out in
// parallel, so its cache snapshot and later eviction counts depend on
// scheduling), and every handler answer must match the reference.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"upsim/internal/core"
	"upsim/internal/obs"
)

// maxTraceRequests caps the replayed stream prefix.
const maxTraceRequests = 3000

// lateLoop is how long the traced run's open loop measures generator
// lateness.
const lateLoop = 2 * time.Second

// memWriter is an in-memory http.ResponseWriter.
type memWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (m *memWriter) Header() http.Header { return m.h }

func (m *memWriter) WriteHeader(s int) {
	if m.status == 0 {
		m.status = s
	}
}

func (m *memWriter) Write(p []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.body.Write(p)
}

// serveMem calls the handler directly.
func serveMem(h http.Handler, method, target string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	w := &memWriter{h: http.Header{}}
	h.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.status, w.body.Bytes()
}

func answerHash(status int, body []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(strconv.Itoa(status)))
	h.Write(body)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Request outcomes of the handler pass.
const (
	outcomeWarm  = "warm"
	outcomeCache = "cache"
	outcomeMiss  = "miss"
)

// classify names how the handler answered one request from the counter
// deltas it caused: a warm replay (no decode, no encode, no result-cache
// lookup), a result-cache hit, or a miss (some computation ran). The warm
// lane probes the same counters as the result cache, so its probe misses
// are discounted. Lint, GET paths and what-if always compute.
func classify(l *logical, body []byte, d counters) string {
	switch l.route {
	case routeLint, routePaths, routeWhatIf:
		return outcomeMiss
	}
	warm := d.label("upsim_server_warm_hits_total", "route", l.route)
	misses := d.sum("upsim_cache_misses_total")
	if warm > 0 && misses == 0 && d.sum("upsim_server_response_encodes_total") == 0 {
		return outcomeWarm
	}
	probes := 1.0
	if l.route == routeBatch {
		var br struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(body, &br); err == nil {
			probes += float64(len(br.Items)) - warm
		}
	}
	if misses > probes || d.sum("upsim_genpool_misses_total") > 0 {
		return outcomeMiss
	}
	return outcomeCache
}

// handlerResult is what the handler pass measured.
type handlerResult struct {
	seq        []int // replayed encoding indices
	serve      []time.Duration
	outcome    []string
	hashes     [][32]byte
	d          counters // counter deltas over the replay
	allocBytes uint64
	gcCycles   uint64
}

func handlerPass(w *workload, chk *checker, seed uint64, budget time.Duration, total *tally) (*handlerResult, error) {
	h := newHandler()
	get := func() ([]byte, error) {
		status, b := serveMem(h, "GET", "/metrics", nil)
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET /metrics: status %d", status)
		}
		return b, nil
	}
	warm := newTally()
	for i := range w.logicals {
		l := &w.logicals[i]
		status, body := serveMem(h, l.method, l.target, l.body)
		warm.record(l, status, chk.ok(i, status, body), nil)
	}
	total.add(warm)
	first, err := scrape(get)
	if err != nil {
		return nil, err
	}
	prev := first
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	res := &handlerResult{}
	t := newTally()
	st := newStream(w, seed, purposeTrace)
	start := time.Now()
	for len(res.seq) < maxTraceRequests && time.Since(start) < budget {
		e := st.next()
		enc := &w.encs[e]
		l := &w.logicals[enc.logical]
		metrics.Read(samples)
		a0, g0 := samples[0].Value.Uint64(), samples[1].Value.Uint64()
		t0 := time.Now()
		status, body := serveMem(h, l.method, l.target, enc.body)
		dt := time.Since(t0)
		metrics.Read(samples)
		res.allocBytes += samples[0].Value.Uint64() - a0
		res.gcCycles += samples[1].Value.Uint64() - g0
		t.record(l, status, chk.ok(enc.logical, status, body), nil)
		cur, err := scrape(get)
		if err != nil {
			return nil, err
		}
		res.seq = append(res.seq, e)
		res.serve = append(res.serve, dt)
		res.outcome = append(res.outcome, classify(l, enc.body, delta(prev, cur)))
		res.hashes = append(res.hashes, answerHash(status, normalize(l.route, body)))
		prev = cur
	}
	res.d = delta(first, prev)
	total.add(t)
	if err := reconcile(res.d, t); err != nil {
		total.failed++
		total.firstErr = "handler pass: " + err.Error()
	}
	return res, nil
}

// layerResult is what one layer pass measured.
type layerResult struct {
	wall   []time.Duration
	hashes [][32]byte
	roots  []*obs.Span
	gens   map[*core.Result]bool
}

// layerPasses replays seq on two fresh layer paths, spans off and spans
// on, request by request and alternating which goes first, so both see
// the same cache states and the same machine load; their wall-time
// difference is the tracing overhead.
func layerPasses(ctx context.Context, w *workload, seq []int) (off, on *layerResult, err error) {
	paths := make([]*servePath, 2)
	results := make([]*layerResult, 2)
	for k, trace := range []bool{false, true} {
		if paths[k], err = newLayerPath(ctx, trace); err != nil {
			return nil, nil, err
		}
		for i := range w.logicals {
			l := &w.logicals[i]
			paths[k].serve(ctx, l.method, l.target, l.body)
		}
		paths[k].gens = map[*core.Result]bool{}
		results[k] = &layerResult{}
	}
	for i, e := range seq {
		enc := &w.encs[e]
		l := &w.logicals[enc.logical]
		for j := 0; j < 2; j++ {
			k := (i + j) % 2
			p, res := paths[k], results[k]
			rctx := ctx
			var root *obs.Span
			if p.trace {
				rctx, root = obs.StartSpan(ctx, "request")
				root.SetAttr("route", l.route)
			}
			t0 := time.Now()
			status, body := p.serve(rctx, l.method, l.target, enc.body)
			res.wall = append(res.wall, time.Since(t0))
			if root != nil {
				root.End()
				res.roots = append(res.roots, root)
			}
			res.hashes = append(res.hashes, answerHash(status, normalize(l.route, body)))
		}
	}
	for k := range paths {
		results[k].gens = paths[k].gens
	}
	return results[0], results[1], nil
}

// listenerPass replays seq over loopback with one client, then runs the
// short open loop; it returns per-request latency and generator lateness.
func listenerPass(w *workload, chk *checker, seed uint64, seq []int, total *tally) ([]time.Duration, []time.Duration, error) {
	tg, err := startTarget(newHandler())
	if err != nil {
		return nil, nil, err
	}
	c := newClient(tg.base)
	t := newTally()
	warmUp(c, chk, t)
	lat := make([]time.Duration, len(seq))
	for i, e := range seq {
		t0 := time.Now()
		send(c, chk, &w.encs[e], t)
		lat[i] = time.Since(t0)
	}
	open := openLoop(c, chk, newStream(w, seed, purposeOpen), w.rate, lateLoop, newRand(seed, purposeArrivals), t)
	total.add(t)
	c.close()
	return lat, open.late, tg.stop()
}

// spanStats aggregates the span trees of the traced layer pass.
type spanStats struct {
	durs  map[string][]time.Duration // span durations by name
	self  map[string]time.Duration   // self time by span name
	mod   map[string]time.Duration   // self time by layer
	bytes int64                      // model XML bytes decoded in uml.decode spans
	total time.Duration              // sum of request (root) durations
}

func collectSpans(roots []*obs.Span) *spanStats {
	s := &spanStats{durs: map[string][]time.Duration{}, self: map[string]time.Duration{}, mod: map[string]time.Duration{}}
	for _, r := range roots {
		s.total += r.Duration()
		s.visit(r)
	}
	return s
}

// knownDescendants returns the nearest descendants that belong to a layer,
// looking through spans that do not (such as the per-atomic-service spans
// under step7).
func knownDescendants(sp *obs.Span) []*obs.Span {
	var out []*obs.Span
	for _, c := range sp.Children() {
		if moduleOf(c.Name()) != "" {
			out = append(out, c)
		} else {
			out = append(out, knownDescendants(c)...)
		}
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []*obs.Span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, c := range spans {
		ivs = append(ivs, iv{c.Start(), c.EndTime()})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

// visit records a layer span: its duration, and its self time (duration
// minus the time its layer descendants cover).
func (s *spanStats) visit(sp *obs.Span) {
	name := sp.Name()
	kids := knownDescendants(sp)
	self := sp.Duration() - covered(kids)
	s.durs[name] = append(s.durs[name], sp.Duration())
	s.self[name] += self
	s.mod[moduleOf(name)] += self
	if name == "uml.decode" {
		for _, a := range sp.Attrs() {
			if n, ok := a.Value.(int); ok && a.Key == "bytes" {
				s.bytes += int64(n)
			}
		}
	}
	for _, k := range kids {
		s.visit(k)
	}
}

// spanRecord is one span of the written trace.
type spanRecord struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a request root
	Request int     `json:"request"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer,omitempty"`
	StartUS float64 `json:"startUs"` // since the pass began
	EndUS   float64 `json:"endUs"`
}

// writeSpans writes every span tree as JSON lines, plus a text rendering
// of the first request of each route.
func writeSpans(dir, base string, w *workload, seq []int, roots []*obs.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, base+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var t0 time.Time
	if len(roots) > 0 {
		t0 = roots[0].Start()
	}
	us := func(t time.Time) float64 { return float64(t.Sub(t0)) / float64(time.Microsecond) }
	id := 0
	var walk func(sp *obs.Span, parent, req int) error
	walk = func(sp *obs.Span, parent, req int) error {
		me := id
		id++
		layer := moduleOf(sp.Name())
		if err := enc.Encode(spanRecord{me, parent, req, sp.Name(), layer, us(sp.Start()), us(sp.EndTime())}); err != nil {
			return err
		}
		for _, c := range sp.Children() {
			if err := walk(c, me, req); err != nil {
				return err
			}
		}
		return nil
	}
	var trees bytes.Buffer
	shown := map[string]bool{}
	for i, r := range roots {
		if err := walk(r, -1, i); err != nil {
			return err
		}
		route := w.logicals[w.encs[seq[i]].logical].route
		if !shown[route] {
			shown[route] = true
			fmt.Fprintf(&trees, "request %d (%s)\n%s\n", i, route, r.Render())
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".trees.txt"), trees.Bytes(), 0o644)
}

func runTraced(ctx context.Context, w *workload, chk *checker, seed uint64, d time.Duration, dir string) (*result, error) {
	out := &result{Metrics: map[string]metric{}}
	total := newTally()
	hp, err := handlerPass(w, chk, seed, d/4, total)
	if err != nil {
		return nil, err
	}
	n := len(hp.seq)
	off, on, err := layerPasses(ctx, w, hp.seq)
	if err != nil {
		return nil, err
	}
	for i := range hp.seq {
		for _, lr := range []*layerResult{off, on} {
			total.attempted++
			if lr.hashes[i] != hp.hashes[i] {
				total.failed++
				total.mismatch++
				if total.firstErr == "" {
					total.firstErr = fmt.Sprintf("layer pass request %d (%s) answers unlike the handler",
						i, w.logicals[w.encs[hp.seq[i]].logical].target)
				}
			}
		}
	}
	lat, late, err := listenerPass(w, chk, seed, hp.seq, total)
	if err != nil {
		return nil, err
	}
	base := fmt.Sprintf("%s-seed%d", w.name, seed)
	if err := writeSpans(dir, base, w, hp.seq, on.roots); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	st := collectSpans(on.roots)
	set := func(name string, v float64) { out.set(perLayer, name, v) }
	usP50 := func(ds []time.Duration) float64 { return float64(durQuantile(ds, 0.5)) / float64(time.Microsecond) }
	spanP50 := func(name string) float64 { return usP50(st.durs[name]) }
	share := func(x time.Duration) float64 { return ratio(float64(x), float64(st.total)) }
	perK := func(x float64) float64 { return 1000 * ratio(x, float64(n)) }

	byOutcome := map[string][]time.Duration{}
	warmHits := 0
	for i, o := range hp.outcome {
		byOutcome[o] = append(byOutcome[o], hp.serve[i])
		if o == outcomeWarm {
			warmHits++
		}
	}
	set("server.serve_us.p50.warm", usP50(byOutcome[outcomeWarm]))
	set("server.serve_us.p50.cache", usP50(byOutcome[outcomeCache]))
	set("server.serve_us.p50.miss", usP50(byOutcome[outcomeMiss]))
	overhead := make([]time.Duration, n)
	for i := range overhead {
		overhead[i] = lat[i] - hp.serve[i]
	}
	set("http.overhead_us.p50", usP50(overhead))
	set("server.decode_us.p50", spanP50("server.decode"))
	set("server.encode_us.p50", spanP50("server.encode"))
	set("server.warm_hit_ratio", ratio(float64(warmHits), float64(n)))
	set("server.encodes_per_req", ratio(hp.d.sum("upsim_server_response_encodes_total"), float64(n)))
	hits, misses := hp.d.sum("upsim_cache_hits_total"), hp.d.sum("upsim_cache_misses_total")
	set("cache.hit_ratio", ratio(hits, hits+misses))
	set("cache.evictions_per_kreq", perK(hp.d.sum("upsim_cache_evictions_total")))
	set("cache.invalidations_per_kreq", perK(hp.d.sum("upsim_cache_invalidations_total")))
	set("cache.shared_per_kreq", perK(hp.d.sum("upsim_cache_singleflight_shared_total")))
	ph, pm := hp.d.sum("upsim_genpool_hits_total"), hp.d.sum("upsim_genpool_misses_total")
	set("core.pool_hit_ratio", ratio(ph, ph+pm))
	set("core.pool_acquire_us.p50", spanP50("core.pool_acquire"))
	set("core.cachekey_us.p50", spanP50("core.cachekey"))
	set("core.generate_us.p50", spanP50("core.generate"))
	set("step5.self_share", share(st.self["step5.import_uml"]))
	set("step6.self_share", share(st.self["step6.import_mapping"]))
	set("step7.self_share", share(st.self["step7.pathdisc"]))
	set("step8.self_share", share(st.self["step8.merge"]))
	set("uml.decode_us.p50", spanP50("uml.decode"))
	var decodeTime time.Duration
	for _, x := range st.durs["uml.decode"] {
		decodeTime += x
	}
	set("uml.decode_mb_s", ratio(float64(st.bytes)/(1<<20), decodeTime.Seconds()))
	set("mapping.parse_us.p50", spanP50("mapping.parse"))
	set("lint.run_us.p50", spanP50("lint.run"))
	set("pathdisc.kshortest_us.p50", spanP50("pathdisc.kshortest"))
	var visits, pruned float64
	for res := range on.gens {
		visits += float64(res.EdgeVisits)
		for _, sp := range res.Services {
			pruned += float64(sp.Stats.Pruned)
		}
	}
	set("pathdisc.edge_visits_per_gen", ratio(visits, float64(len(on.gens))))
	set("pathdisc.pruned_ratio", ratio(pruned, visits))
	set("depend.analyze_us.p50", spanP50("avail.analyze"))
	set("avail.montecarlo.self_share", share(st.self["avail.montecarlo"]))
	set("avail.exact.self_share", share(st.self["avail.exact"]))
	set("avail.rbd.self_share", share(st.self["avail.rbd"]))
	set("depend.compile.self_share", share(st.self["depend.compile"]))
	set("explain.report_us.p50", spanP50("explain.report"))
	set("explain.attribution_us.p50", spanP50("explain.attribution"))
	set("whatif.impact_us.p50", spanP50("whatif.impact"))
	set("whatif.critical_us.p50", spanP50("whatif.critical"))
	set("whatif.apply_us.p50", spanP50("whatif.apply"))
	var gains []float64
	for i, r := range on.roots {
		if w.logicals[w.encs[hp.seq[i]].logical].route != routeBatch || hp.outcome[i] == outcomeWarm {
			continue
		}
		var items time.Duration
		for _, c := range r.Children() {
			if c.Name() == "server.batch_item" {
				items += c.Duration()
			}
		}
		gains = append(gains, ratio(float64(items), float64(hp.serve[i])))
	}
	set("batch.fanout_gain", median(gains))
	set("runtime.alloc_kb_per_req", ratio(float64(hp.allocBytes)/1024, float64(n)))
	set("runtime.gc_per_kreq", perK(float64(hp.gcCycles)))
	var accounted time.Duration
	for _, m := range modules {
		set(m+".self_share", share(st.mod[m]))
		accounted += st.mod[m]
	}
	set("trace.unaccounted_share", share(st.mod["unaccounted"]))
	var wallOff, wallOn time.Duration
	for i := range off.wall {
		wallOff += off.wall[i]
		wallOn += on.wall[i]
	}
	set("trace.layer_us_per_req", ratio(float64(wallOff)/float64(time.Microsecond), float64(n)))
	set("trace.overhead_share", ratio(float64(wallOn-wallOff), float64(wallOff)))
	set("trace.requests", float64(n))
	set("loadgen.late_p99_ms", float64(durQuantile(late, 0.99))/float64(time.Millisecond))

	out.Attempted, out.Failed = total.attempted, total.failed
	out.Correct = total.failed == 0
	out.note("layer self times: %.1f us/request over %d layers + %.1f us/request unaccounted = %.1f us/request traced (sum/total %.4f)",
		float64(accounted)/float64(time.Microsecond)/float64(n), len(modules),
		float64(st.mod["unaccounted"])/float64(time.Microsecond)/float64(n),
		float64(st.total)/float64(time.Microsecond)/float64(n),
		ratio(float64(accounted+st.mod["unaccounted"]), float64(st.total)))
	out.note("tracing overhead: %.1f us/request with spans, %.1f without",
		float64(wallOn)/float64(time.Microsecond)/float64(n), float64(wallOff)/float64(time.Microsecond)/float64(n))
	out.note("outcomes: %d warm, %d cache, %d miss of %d replayed", len(byOutcome[outcomeWarm]),
		len(byOutcome[outcomeCache]), len(byOutcome[outcomeMiss]), n)
	out.note("span trees: %s", filepath.Join(dir, base+".spans.jsonl"))
	if total.firstErr != "" {
		out.note("first failure: %s", total.firstErr)
	}
	return out, nil
}
