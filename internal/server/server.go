// Package server exposes the UPSIM pipeline over HTTP as a small JSON API,
// turning the library into the kind of network-management service the paper
// targets ("Service networks; Service network management"): operations teams
// can POST a model, a service and a mapping and get back the user-perceived
// infrastructure and its availability for any (requester, provider) pair.
//
// Endpoints (models travel in the request; the only server-side state is a
// content-addressed cache of derived results, so any replica can serve any
// request):
//
//	GET  /healthz                      liveness probe
//	GET  /metrics                      Prometheus text exposition (internal/obs)
//	GET  /debug/vars                   expvar JSON, including the obs snapshot
//	GET  /api/v1/casestudy/model       built-in USI model (XML)
//	GET  /api/v1/casestudy/mapping     built-in Table I mapping (XML)
//	GET  /api/v1/paths                 paths through the built-in case-study model
//	POST /api/v1/paths                 all simple paths — or the k cheapest under a
//	                                   cost metric — between two components
//	POST /api/v1/generate              generate a UPSIM
//	POST /api/v1/availability          generate + Section VII analysis
//	POST /api/v1/qos                   performability + responsiveness
//	POST /api/v1/explain               provenance & attribution report (mode
//	                                   "validate" checks a generation against a
//	                                   current topology instead)
//	POST /api/v1/lint                  static-analysis report for model, service and mapping
//	POST /api/v1/batch                 many generate/availability/qos/paths items,
//	                                   fanned out across a worker pool through the
//	                                   shared cache
//	POST /api/v1/whatif                live-topology what-if: failure impact, permanent
//	                                   topology deltas with targeted cache invalidation,
//	                                   critical-component ranking (internal/whatif)
//
// This table is mirrored in README.md ("HTTP API") and fully specified in
// docs/API.md; update all of them together.
//
// The generation-backed routes (generate, availability, qos, batch) run
// through one shared internal/cache.Cache (capacity Config.CacheSize):
// repeated identical requests skip Steps 6–8 entirely and concurrent
// identical requests compute once (singleflight). Cache traffic is visible
// on GET /metrics as upsim_cache_{hits,misses,evictions,singleflight_shared}_total.
//
// Every API route runs behind the observability middleware (request-ID
// injection, request counter, per-route latency histogram, in-flight gauge,
// panic recovery → JSON 500); see middleware.go.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"upsim/internal/cache"
	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/explain"
	"upsim/internal/lint"
	"upsim/internal/mapping"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
	"upsim/internal/service"
	"upsim/internal/uml"
)

// MaxRequestBytes bounds request bodies (models are small; 8 MiB is
// generous).
const MaxRequestBytes = 8 << 20

// publishOnce guards the process-wide expvar registration (expvar panics on
// duplicate names; New may be called per test).
var publishOnce sync.Once

// Config tunes the handler. The zero value is ready to use.
type Config struct {
	// CacheSize bounds the shared generation cache (entries); <= 0 selects
	// cache.DefaultMaxEntries.
	CacheSize int
	// BatchWorkers bounds the per-request fan-out of POST /api/v1/batch;
	// <= 0 selects runtime.GOMAXPROCS(0). A request's own "workers" field
	// overrides it.
	BatchWorkers int
	// WarmSize bounds the dedicated warm-lane response cache (entries);
	// <= 0 selects cache.DefaultMaxEntries. The warm lane used to share the
	// generation cache; a dedicated bound keeps a flood of distinct request
	// bodies from evicting generation results (and vice versa).
	WarmSize int
	// Prewarm builds a generator for the built-in case-study model at
	// construction time and parks it in the pool, so the first request
	// referencing that model (GET /api/v1/paths always does) skips XML
	// decode, VPM import and CSR compilation.
	Prewarm bool
}

// api is the per-handler shared state: the content-addressed result cache
// every generation-backed route runs through, the dedicated warm-lane
// response cache, the generator pool that recycles imported model spaces
// across requests of the same model, and the batch pool bound.
type api struct {
	cache        *cache.Cache
	warm         *cache.Cache
	generators   *core.GeneratorPool
	batchWorkers int
}

// New returns the HTTP handler serving the API with the default Config.
func New() http.Handler { return NewWithConfig(Config{}) }

// newAPI builds the shared handler state (split from NewWithConfig so tests
// can reach the pool and the warm cache directly).
func newAPI(cfg Config) *api {
	c := cache.New(cfg.CacheSize)
	a := &api{
		cache:        c,
		warm:         cache.New(cfg.WarmSize),
		generators:   core.NewGeneratorPool(c, 0, 0),
		batchWorkers: cfg.BatchWorkers,
	}
	mWarmCapacity.With().Set(int64(a.warm.Stats().MaxEntries))
	if cfg.Prewarm {
		a.prewarm()
	}
	return a
}

// prewarm parks a ready generator for the built-in case-study model in the
// pool. Failures are ignored: prewarming is an optimisation, and the model
// is built from source so it cannot actually fail.
func (a *api) prewarm() {
	xml, err := caseStudyXML()
	if err != nil {
		return
	}
	g, err := a.generators.Acquire(context.Background(), xml, casestudy.DiagramName)
	if err != nil {
		return
	}
	a.generators.Release(g)
}

// NewWithConfig returns the HTTP handler serving the API.
func NewWithConfig(cfg Config) http.Handler {
	publishOnce.Do(func() {
		expvar.Publish("upsim", expvar.Func(func() any {
			return obs.DefaultRegistry().Snapshot()
		}))
	})
	return newAPI(cfg).routes()
}

// routes assembles the mux over the shared state.
func (a *api) routes() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, instrument(route, h))
	}
	// The analysis routes additionally run the warm byte-level lane (see
	// warm.go): a repeated body is answered from memoised response bytes
	// without JSON decoding, generation or allocation.
	warm := func(pattern, route, prefix string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, a.instrumentWarm(route, prefix, h))
	}
	handle("GET /healthz", "/healthz", handleHealth)
	handle("GET /api/v1/casestudy/model", "/api/v1/casestudy/model", handleCaseStudyModel)
	handle("GET /api/v1/casestudy/mapping", "/api/v1/casestudy/mapping", handleCaseStudyMapping)
	handle("GET /api/v1/paths", "/api/v1/paths", a.handlePathsGet)
	handle("POST /api/v1/paths", "/api/v1/paths", a.handlePaths)
	handle("POST /api/v1/generate", "/api/v1/generate", a.handleGenerate)
	warm("POST /api/v1/availability", "/api/v1/availability", warmPrefixAvailability, a.handleAvailability)
	warm("POST /api/v1/qos", "/api/v1/qos", warmPrefixQoS, a.handleQoS)
	warm("POST /api/v1/explain", "/api/v1/explain", warmPrefixExplain, a.handleExplain)
	handle("POST /api/v1/lint", "/api/v1/lint", handleLint)
	warm("POST /api/v1/batch", "/api/v1/batch", warmPrefixBatch, a.handleBatch)
	handle("POST /api/v1/whatif", "/api/v1/whatif", a.handleWhatIf)
	mux.Handle("GET /metrics", obs.Handler())
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// mResponseEncodes counts JSON encodings performed by the cached analysis
// routes. Warm cache hits replay memoised bytes, so under a steady repeated
// load this counter stays flat while the route's request counter climbs.
var mResponseEncodes = obs.NewCounter("upsim_server_response_encodes_total",
	"JSON response encodings by route (cache hits reuse memoised bytes)", "route")

// encodedResponse pairs an analysis response value with its JSON encoding,
// produced once inside the cache's compute function. Cache hits write the
// memoised bytes directly and skip re-marshalling; the decoded value stays
// available for in-process consumers (the batch fan-out embeds it in its own
// reply, which is encoded as a whole).
type encodedResponse struct {
	value any
	body  []byte
}

// encodeResponse marshals v exactly as writeJSON would — json.Marshal plus
// the trailing newline json.Encoder appends — so the raw-bytes path is
// byte-identical to the encode-per-request path it replaces.
func encodeResponse(route string, v any) (*encodedResponse, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	mResponseEncodes.With(route).Inc()
	return &encodedResponse{value: v, body: append(b, '\n')}, nil
}

// writeRawJSON writes a pre-encoded JSON body.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// budgetErrorResponse is the structured 422 body for analysis-budget
// exhaustion: which budget overflowed, on which atomic service, and by how
// much — enough for a client to raise the limit or shrink the model instead
// of parsing an error string.
type budgetErrorResponse struct {
	errorResponse
	Kind          string `json:"kind"`
	AtomicService string `json:"atomicService,omitempty"`
	Need          int    `json:"need,omitempty"`
	Limit         int    `json:"limit"`
}

// writeAnalysisError renders an analysis failure: budget exhaustion becomes
// the structured 422, anything else the uniform error body at the same
// status.
func writeAnalysisError(w http.ResponseWriter, err error) {
	if be, ok := depend.AsBudgetError(err); ok {
		writeJSON(w, http.StatusUnprocessableEntity, budgetErrorResponse{
			errorResponse: errorResponse{Error: be.Error()},
			Kind:          string(be.Kind),
			AtomicService: be.AtomicService,
			Need:          be.Need,
			Limit:         be.Limit,
		})
		return
	}
	writeError(w, http.StatusUnprocessableEntity, "%v", err)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

func handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func handleCaseStudyModel(w http.ResponseWriter, _ *http.Request) {
	m, err := casestudy.BuildModel()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building case study: %v", err)
		return
	}
	if _, err := casestudy.PrintingService(m); err != nil {
		writeError(w, http.StatusInternalServerError, "building printing service: %v", err)
		return
	}
	var buf bytes.Buffer
	if err := uml.Encode(&buf, m); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding model: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_, _ = w.Write(buf.Bytes())
}

func handleCaseStudyMapping(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := casestudy.TableIMapping().Encode(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding mapping: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	_, _ = w.Write(buf.Bytes())
}

// modelInput is the common request fragment carrying the UML model.
type modelInput struct {
	// ModelXML is the model in the library's XML dialect.
	ModelXML string `json:"modelXml"`
	// Diagram names the infrastructure object diagram.
	Diagram string `json:"diagram"`
}

// validate checks the required fields before any decode work.
func (in *modelInput) validate() error {
	if strings.TrimSpace(in.ModelXML) == "" {
		return fmt.Errorf("modelXml is required")
	}
	if in.Diagram == "" {
		return fmt.Errorf("diagram is required")
	}
	return nil
}

// load decodes the model and builds a fresh generator. The what-if route
// depends on this freshness — its engine takes ownership of the generator's
// live topology — so it must NOT be switched to the pooled acquire path.
func (in *modelInput) load(ctx context.Context) (*uml.Model, *core.Generator, error) {
	if err := in.validate(); err != nil {
		return nil, nil, err
	}
	m, err := uml.Decode(strings.NewReader(in.ModelXML))
	if err != nil {
		return nil, nil, err
	}
	gen, err := core.NewGeneratorContext(ctx, m, in.Diagram)
	if err != nil {
		return nil, nil, err
	}
	return m, gen, nil
}

// pathsRequest asks for simple paths between two components: all of them
// (the default), or — k > 0 — the k cheapest under a cost metric.
type pathsRequest struct {
	modelInput
	From     string `json:"from"`
	To       string `json:"to"`
	MaxDepth int    `json:"maxDepth,omitempty"`
	MaxPaths int    `json:"maxPaths,omitempty"`
	// K switches to ranked discovery: the k cheapest paths under Cost,
	// found by the budgeted k-best kernel instead of full enumeration.
	// MaxDepth and MaxPaths do not apply in ranked mode.
	K int `json:"k,omitempty"`
	// Cost selects the ranking metric: "hops" (default) or "throughput"
	// (each link costs 1/throughput from its Communication stereotype,
	// plain links cost 1).
	Cost string `json:"cost,omitempty"`
}

// rankedPathJSON is one ranked-discovery result: the hop sequence plus the
// stereotype-derived metrics joined from the provenance layer.
type rankedPathJSON struct {
	Path string `json:"path"`
	Hops int    `json:"hops"`
	// Cost is the path's cost under the requested metric — the exact value
	// the kernel ranked by.
	Cost float64 `json:"cost"`
	// BottleneckMbps is the smallest declared throughput along the path (0
	// when no link declares one).
	BottleneckMbps float64 `json:"bottleneckMbps,omitempty"`
	// Channels lists the distinct channel attributes in traversal order.
	Channels []string `json:"channels,omitempty"`
}

// pathsResponse returns the enumeration together with the full discovery
// instrumentation (the Stats the seed silently dropped). In ranked mode
// (k > 0) Ranked carries the per-path cost records and Paths the same hop
// sequences in rank order.
type pathsResponse struct {
	Paths        []string `json:"paths"`
	PathCount    int      `json:"pathCount"`
	EdgeVisits   int      `json:"edgeVisits"`
	NodesVisited int      `json:"nodesVisited"`
	MaxStack     int      `json:"maxStack"`
	Pruned       int      `json:"pruned"`
	Truncated    bool     `json:"truncated"`
	// CostMetric echoes the ranking metric in ranked mode.
	CostMetric string `json:"costMetric,omitempty"`
	// Ranked carries the per-path records in ranked mode.
	Ranked []rankedPathJSON `json:"ranked,omitempty"`
	// PathStats aggregates the enumeration: length spread and the
	// direct/transitive split plus the depth histogram (internal/explain).
	PathStats explain.PathStatistics `json:"pathStats"`
}

// pathsHardLimit bounds the /api/v1/paths enumeration: a request whose pair
// holds more simple paths than this gets a structured 422 instead of an
// unbounded (potentially memory-exhausting) search that used to surface as a
// bare 500. Variable so tests can lower it.
var pathsHardLimit = 1 << 20

// pathsWorkLimit bounds ranked discovery's K·V·E work estimate on
// /api/v1/paths, the k-best analogue of pathsHardLimit. Variable so tests
// can lower it.
var pathsWorkLimit = 1 << 26

// pathsBudgetResponse renders a pathdisc budget overflow as the structured
// budget body — same shape as the depend budget errors; the
// requester→provider pair plays the atomic-service role. Kind distinguishes
// the enumeration hard limit ("paths") from the ranked work envelope
// ("kbest"); Need falls back to Limit+1 for enumeration errors, which only
// know the limit they hit.
func pathsBudgetResponse(le *pathdisc.LimitError) *budgetErrorResponse {
	need := le.Need
	if need == 0 {
		need = le.Limit + 1
	}
	return &budgetErrorResponse{
		errorResponse: errorResponse{Error: le.Error()},
		Kind:          le.BudgetKind(),
		AtomicService: le.Src + "→" + le.Dst,
		Need:          need,
		Limit:         le.Limit,
	}
}

// computePaths runs the discovery — full enumeration, or the budgeted
// k-best kernel when req.K > 0 — on an acquired generator. diagram names
// the object diagram the generator was built from (needed to join link
// stereotypes onto ranked results). Shared by the POST route (model in the
// body), the GET route (built-in case-study model) and the batch "paths"
// op; budget overflows surface as *pathdisc.LimitError. Negative knobs are
// rejected: the kernel reads k <= 0 as "enumerate everything" and a
// non-positive bound as "unbounded", so k=-1 would otherwise silently turn a
// ranked request into a full enumeration.
func computePaths(gen *core.Generator, diagram string, req *pathsRequest) (*pathsResponse, error) {
	for _, knob := range []struct {
		name string
		v    int
	}{{"k", req.K}, {"maxDepth", req.MaxDepth}, {"maxPaths", req.MaxPaths}} {
		if knob.v < 0 {
			return nil, fmt.Errorf("%s must not be negative (got %d)", knob.name, knob.v)
		}
	}
	metric, err := pathdisc.ParseCostMetric(req.Cost)
	if err != nil {
		return nil, err
	}
	c := gen.Compiled()
	var (
		paths []pathdisc.Path
		stats pathdisc.Stats
	)
	if req.K > 0 {
		paths, stats, err = c.KShortest(req.From, req.To,
			pathdisc.Options{K: req.K, CostMetric: metric, MaxWork: pathsWorkLimit})
	} else {
		// The generator compiled the CSR kernel at acquire time; enumerate
		// through it rather than the map-based walker.
		paths, stats, err = c.AllPaths(req.From, req.To,
			pathdisc.Options{MaxDepth: req.MaxDepth, MaxPaths: req.MaxPaths, HardMaxPaths: pathsHardLimit})
	}
	if err != nil {
		return nil, err
	}
	resp := &pathsResponse{
		PathCount:    stats.Paths,
		EdgeVisits:   stats.EdgeVisits,
		NodesVisited: stats.NodeVisits,
		MaxStack:     stats.MaxStack,
		Pruned:       stats.Pruned,
		Truncated:    stats.Truncated,
		PathStats:    explain.Statistics(paths),
	}
	for _, p := range paths {
		resp.Paths = append(resp.Paths, p.String())
	}
	if req.K > 0 {
		resp.CostMetric = metric.String()
		var links []*uml.Link
		if d, ok := gen.Model().Diagram(diagram); ok {
			links = d.Links()
		}
		for _, p := range paths {
			_, bottleneck, channels := explain.PathMetrics(links, p)
			resp.Ranked = append(resp.Ranked, rankedPathJSON{
				Path: p.String(),
				Hops: p.Len(),
				// PathCost folds in the kernel's summation order, so this
				// is the exact ranking cost, not a re-derived approximation.
				Cost:           c.PathCost(metric, p),
				BottleneckMbps: bottleneck,
				Channels:       channels,
			})
		}
	}
	return resp, nil
}

// servePaths maps computePaths onto the HTTP surface: budget overflows
// become the structured 422, anything else a 400.
func servePaths(w http.ResponseWriter, gen *core.Generator, diagram string, req *pathsRequest) {
	resp, err := computePaths(gen, diagram, req)
	if err != nil {
		if le, ok := pathdisc.AsLimitError(err); ok {
			writeJSON(w, http.StatusUnprocessableEntity, pathsBudgetResponse(le))
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *api) handlePaths(w http.ResponseWriter, r *http.Request) {
	var req pathsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	gen, err := a.generators.Acquire(r.Context(), req.ModelXML, req.Diagram)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer a.generators.Release(gen)
	servePaths(w, gen, req.Diagram, &req)
}

// caseStudyXMLOnce memoises the encoded case-study model: the model is
// built from source, so the XML is a process constant.
var caseStudyXMLOnce = sync.OnceValues(func() (string, error) {
	m, err := casestudy.BuildModel()
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := uml.Encode(&buf, m); err != nil {
		return "", err
	}
	return buf.String(), nil
})

func caseStudyXML() (string, error) { return caseStudyXMLOnce() }

// handlePathsGet serves path discovery over the built-in case-study model —
// the server is stateless, so the GET form cannot carry a model and instead
// answers against the paper's Figure 8 topology. Query parameters: from, to
// (required), k, cost, maxDepth, maxPaths.
func (a *api) handlePathsGet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := pathsRequest{
		From: q.Get("from"),
		To:   q.Get("to"),
		Cost: q.Get("cost"),
	}
	if req.From == "" || req.To == "" {
		writeError(w, http.StatusBadRequest, "from and to are required")
		return
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"k", &req.K}, {"maxDepth", &req.MaxDepth}, {"maxPaths", &req.MaxPaths}} {
		if s := q.Get(f.name); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				writeError(w, http.StatusBadRequest, "invalid %s: %v", f.name, err)
				return
			}
			*f.dst = n
		}
	}
	xml, err := caseStudyXML()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building case study: %v", err)
		return
	}
	gen, err := a.generators.Acquire(r.Context(), xml, casestudy.DiagramName)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	defer a.generators.Release(gen)
	servePaths(w, gen, casestudy.DiagramName, &req)
}

// generateRequest asks for a UPSIM.
type generateRequest struct {
	modelInput
	// Service names an activity of the model.
	Service string `json:"service"`
	// MappingXML is the Figure 3 mapping document.
	MappingXML string `json:"mappingXml"`
	// Name names the generated UPSIM (default "upsim").
	Name string `json:"name,omitempty"`
	// AllowDisconnected tolerates unreachable pairs.
	AllowDisconnected bool `json:"allowDisconnected,omitempty"`
}

// generate runs the pipeline for one request through the shared cache (nil
// disables caching). With a pool, the generator is acquired warm — a repeated
// model skips XML decode, VPM import and CSR compilation — and released (its
// derived artifacts unhooked) before returning; results stay valid after
// release because derived diagrams are detached, not destroyed. With p ==
// nil the generator is built fresh per request. Either way the cache key is
// derived from the request content, so identical requests hit the same entry
// no matter which generator instance computes them. The returned key is the
// generation content hash; the analysis routes extend it into their own
// cache keys so replays skip recompilation, not just regeneration.
func (req *generateRequest) generate(ctx context.Context, c *cache.Cache, p *core.GeneratorPool) (*core.Result, string, error) {
	var gen *core.Generator
	if p != nil {
		if err := req.validate(); err != nil {
			return nil, "", err
		}
		g, err := p.Acquire(ctx, req.ModelXML, req.Diagram)
		if err != nil {
			return nil, "", err
		}
		defer p.Release(g)
		gen = g
	} else {
		_, g, err := req.load(ctx)
		if err != nil {
			return nil, "", err
		}
		gen = g
	}
	m := gen.Model()
	act, ok := m.Activity(req.Service)
	if !ok {
		return nil, "", fmt.Errorf("model has no activity %q", req.Service)
	}
	svc, err := service.FromActivity(act)
	if err != nil {
		return nil, "", err
	}
	mp, err := mapping.Parse(strings.NewReader(req.MappingXML))
	if err != nil {
		return nil, "", err
	}
	name := req.Name
	if name == "" {
		name = "upsim"
	}
	opts := core.Options{AllowDisconnected: req.AllowDisconnected}
	key, err := gen.CacheKey(svc, mp, name, opts)
	if err != nil {
		return nil, "", err
	}
	res, err := gen.WithCache(c).GenerateContext(ctx, svc, mp, name, opts)
	if err != nil {
		return nil, "", err
	}
	return res, key, nil
}

// linkJSON is one UPSIM link.
type linkJSON struct {
	A           string `json:"a"`
	B           string `json:"b"`
	Association string `json:"association"`
}

// serviceStatsJSON is the Step 7 instrumentation for one atomic service.
type serviceStatsJSON struct {
	AtomicService string `json:"atomicService"`
	Requester     string `json:"requester"`
	Provider      string `json:"provider"`
	Paths         int    `json:"paths"`
	EdgeVisits    int    `json:"edgeVisits"`
	NodesVisited  int    `json:"nodesVisited"`
	MaxStack      int    `json:"maxStack"`
	Pruned        int    `json:"pruned"`
	Truncated     bool   `json:"truncated"`
	// PathStats summarises this service's discovered paths.
	PathStats explain.PathStatistics `json:"pathStats"`
}

// generateResponse returns the UPSIM plus the per-service discovery stats.
type generateResponse struct {
	Name       string              `json:"name"`
	Nodes      []string            `json:"nodes"`
	Links      []linkJSON          `json:"links"`
	Paths      map[string][]string `json:"pathsByService"`
	TotalPaths int                 `json:"totalPaths"`
	EdgeVisits int                 `json:"edgeVisits"`
	Services   []serviceStatsJSON  `json:"serviceStats"`
	// PathStats aggregates all services' discovered paths.
	PathStats explain.PathStatistics `json:"pathStats"`
	// Truncated is true when any atomic service hit its MaxPaths budget, so
	// the UPSIM (and every analysis derived from it) is a lower bound.
	Truncated bool `json:"truncated"`
}

func (a *api) handleGenerate(w http.ResponseWriter, r *http.Request) {
	var req generateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, _, err := req.generate(r.Context(), a.cache, a.generators)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, buildGenerateResponse(res))
}

// buildGenerateResponse renders a pipeline Result; shared by the single
// generate route and the batch fan-out.
func buildGenerateResponse(res *core.Result) generateResponse {
	resp := generateResponse{
		Name:       res.Name,
		Nodes:      res.NodeNames(),
		Paths:      make(map[string][]string, len(res.Services)),
		TotalPaths: res.TotalPaths,
		EdgeVisits: res.EdgeVisits,
	}
	for _, l := range res.UPSIM.Links() {
		a, b := l.Ends()
		resp.Links = append(resp.Links, linkJSON{A: a.Name(), B: b.Name(), Association: l.Association().Name()})
	}
	var all []pathdisc.Path
	for _, sp := range res.Services {
		var ps []string
		for _, p := range sp.Paths {
			ps = append(ps, p.String())
		}
		resp.Paths[sp.AtomicService] = ps
		resp.Services = append(resp.Services, serviceStatsJSON{
			AtomicService: sp.AtomicService,
			Requester:     sp.Requester,
			Provider:      sp.Provider,
			Paths:         sp.Stats.Paths,
			EdgeVisits:    sp.Stats.EdgeVisits,
			NodesVisited:  sp.Stats.NodeVisits,
			MaxStack:      sp.Stats.MaxStack,
			Pruned:        sp.Stats.Pruned,
			Truncated:     sp.Stats.Truncated,
			PathStats:     explain.Statistics(sp.Paths),
		})
		all = append(all, sp.Paths...)
		resp.Truncated = resp.Truncated || sp.Stats.Truncated
	}
	resp.PathStats = explain.Statistics(all)
	return resp
}

// availabilityRequest asks for the Section VII analysis.
type availabilityRequest struct {
	generateRequest
	// Formula1 selects the paper's approximation for component
	// availability.
	Formula1 bool `json:"formula1,omitempty"`
	// MCSamples sets the Monte-Carlo sample count (default 100000).
	MCSamples int `json:"mcSamples,omitempty"`
	// Seed sets the Monte-Carlo seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// LegacyKernel routes the analysis through the map-based implementation
	// instead of the compiled bitset kernel (the ablation escape hatch). The
	// numbers are bit-identical either way; the flag participates in the
	// analysis cache key so the two variants never share an entry.
	LegacyKernel bool `json:"legacyKernel,omitempty"`
}

// availabilityResponse returns the analysis report.
type availabilityResponse struct {
	Exact                float64 `json:"exact"`
	RBDApprox            float64 `json:"rbdApprox"`
	FTApprox             float64 `json:"ftApprox"`
	MonteCarlo           float64 `json:"monteCarlo"`
	MCStdErr             float64 `json:"mcStdErr"`
	DowntimePerYearHours float64 `json:"downtimePerYearHours"`
	Components           int     `json:"components"`
}

// qosRequest asks for the performability/responsiveness analysis.
type qosRequest struct {
	generateRequest
	// MaxHops is the responsiveness hop budget (default 8).
	MaxHops int `json:"maxHops,omitempty"`
}

// qosResponse returns both QoS properties.
type qosResponse struct {
	ThroughputMbps    float64 `json:"throughputMbps"`
	MaxHops           int     `json:"maxHops"`
	Responsiveness    float64 `json:"responsiveness"`
	Availability      float64 `json:"availability"`
	PathsWithinBudget int     `json:"pathsWithinBudget"`
	PathsTotal        int     `json:"pathsTotal"`
}

func (a *api) handleQoS(w http.ResponseWriter, r *http.Request) {
	var req qosRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, genKey, err := req.generate(r.Context(), a.cache, a.generators)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := analyzeQoS(r.Context(), a.cache, genKey, res, req.MaxHops)
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	writeRawJSON(w, http.StatusOK, resp.body)
	a.storeWarm(r, resp)
}

// analyzeQoS runs the performability + responsiveness analysis on a (possibly
// cached) Result, through the shared cache keyed on the generation content
// hash plus the analysis knobs: a replayed request skips structure
// extraction, kernel compilation AND response encoding — the cache holds the
// marshalled bytes, so a warm hit writes them straight to the wire. Shared by
// the single qos route and the batch fan-out; c == nil disables caching.
func analyzeQoS(ctx context.Context, c *cache.Cache, genKey string, res *core.Result, maxHops int) (*encodedResponse, error) {
	if maxHops <= 0 {
		maxHops = 8
	}
	compute := func() (any, error) {
		tp, err := depend.Throughput(res)
		if err != nil {
			return nil, err
		}
		rr, err := depend.Responsiveness(res, depend.ModelExact, maxHops)
		if err != nil {
			return nil, err
		}
		return encodeResponse("/api/v1/qos", qosResponse{
			ThroughputMbps:    tp.Service,
			MaxHops:           rr.MaxHops,
			Responsiveness:    rr.Responsiveness,
			Availability:      rr.Availability,
			PathsWithinBudget: rr.PathsWithinBudget,
			PathsTotal:        rr.PathsTotal,
		})
	}
	if c == nil || genKey == "" {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		return v.(*encodedResponse), nil
	}
	key := fmt.Sprintf("qos|%s|hops=%d", genKey, maxHops)
	v, _, err := c.Do(ctx, key, compute)
	if err != nil {
		return nil, err
	}
	return v.(*encodedResponse), nil
}

// lintRequest asks for a static-analysis report. Unlike the pipeline routes
// it does not reuse modelInput.load: that path pre-validates the model inside
// NewGeneratorContext and would reject exactly the broken models the linter
// exists to report on. Only modelXml is required; diagram, service and
// mappingXml widen the rule coverage when present.
type lintRequest struct {
	// ModelXML is the model in the library's XML dialect (required).
	ModelXML string `json:"modelXml"`
	// Diagram names the infrastructure object diagram (optional: omit for a
	// model-only lint).
	Diagram string `json:"diagram,omitempty"`
	// Service names an activity of the model (optional).
	Service string `json:"service,omitempty"`
	// MappingXML is the Figure 3 mapping document (optional).
	MappingXML string `json:"mappingXml,omitempty"`
}

// lintResponse wraps the report with the service resolution note (set when
// the named activity exists but cannot be wrapped as a composite service, in
// which case the mapping-coverage rules were skipped).
type lintResponse struct {
	lint.Report
	ServiceError string `json:"serviceError,omitempty"`
}

func handleLint(w http.ResponseWriter, r *http.Request) {
	var req lintRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.ModelXML) == "" {
		writeError(w, http.StatusBadRequest, "modelXml is required")
		return
	}
	m, err := uml.Decode(strings.NewReader(req.ModelXML))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := lintResponse{}
	var svc *service.Composite
	if req.Service != "" {
		act, ok := m.Activity(req.Service)
		if !ok {
			writeError(w, http.StatusBadRequest, "model has no activity %q", req.Service)
			return
		}
		if svc, err = service.FromActivity(act); err != nil {
			resp.ServiceError = err.Error()
			svc = nil
		}
	}
	var mp *mapping.Mapping
	if strings.TrimSpace(req.MappingXML) != "" {
		if mp, err = mapping.Parse(strings.NewReader(req.MappingXML)); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	in, err := lint.NewInput(m, req.Diagram, svc, mp)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rep, err := lint.Default().Run(in)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp.Report = *rep
	writeJSON(w, http.StatusOK, resp)
}

func (a *api) handleAvailability(w http.ResponseWriter, r *http.Request) {
	var req availabilityRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, genKey, err := req.generate(r.Context(), a.cache, a.generators)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := analyzeAvailability(r.Context(), a.cache, genKey, res, req.Formula1, req.MCSamples, req.Seed, req.LegacyKernel)
	if err != nil {
		writeAnalysisError(w, err)
		return
	}
	writeRawJSON(w, http.StatusOK, resp.body)
	a.storeWarm(r, resp)
}

// analyzeAvailability runs the Section VII analysis on a (possibly cached)
// Result, through the shared cache keyed on the generation content hash plus
// every analysis knob (including the legacy-kernel ablation flag): a
// replayed request skips structure extraction, kernel compilation AND
// response encoding — the cache holds the marshalled bytes, so a warm hit
// writes them straight to the wire. Shared by the single availability route
// and the batch fan-out; c == nil disables caching.
func analyzeAvailability(ctx context.Context, c *cache.Cache, genKey string, res *core.Result, formula1 bool, samples int, seed int64, legacy bool) (*encodedResponse, error) {
	model := depend.ModelExact
	if formula1 {
		model = depend.ModelFormula1
	}
	if samples <= 0 {
		samples = 100000
	}
	if seed == 0 {
		seed = 1
	}
	compute := func() (any, error) {
		rep, err := depend.AnalyzeWithOptions(ctx, res, model, samples, seed,
			depend.AnalyzeOptions{Legacy: legacy})
		if err != nil {
			return nil, err
		}
		return encodeResponse("/api/v1/availability", availabilityResponse{
			Exact:                rep.Exact,
			RBDApprox:            rep.RBDApprox,
			FTApprox:             rep.FTApprox,
			MonteCarlo:           rep.MonteCarlo,
			MCStdErr:             rep.MCStdErr,
			DowntimePerYearHours: rep.DowntimePerYearHours,
			Components:           rep.Components,
		})
	}
	if c == nil || genKey == "" {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		return v.(*encodedResponse), nil
	}
	key := fmt.Sprintf("avail|%s|model=%s|mc=%d|seed=%d|legacy=%t", genKey, model, samples, seed, legacy)
	v, _, err := c.Do(ctx, key, compute)
	if err != nil {
		return nil, err
	}
	return v.(*encodedResponse), nil
}

// Explain modes.
const (
	// ExplainModeReport (the default) returns the full provenance &
	// attribution report.
	ExplainModeReport = "report"
	// ExplainModeValidate checks the generation against a current topology
	// and returns the freshness verdict instead.
	ExplainModeValidate = "validate"
)

// explainRequest asks for the provenance & attribution report of a
// generation, or — mode "validate" — for its freshness against a current
// topology.
type explainRequest struct {
	generateRequest
	// Mode selects the report (default) or the validation check.
	Mode string `json:"mode,omitempty"`
	// Top truncates the cut-set and component rankings to the N largest
	// contributors (0 keeps everything; the totals always reflect the full
	// rankings).
	Top int `json:"top,omitempty"`
	// CutLimit overrides the cut-set expansion budget (0 keeps the default).
	CutLimit int `json:"cutLimit,omitempty"`
	// Formula1 selects the paper's approximation for component availability.
	Formula1 bool `json:"formula1,omitempty"`
	// LegacyKernel attributes through the map-based dependability
	// implementation; the report is bit-identical to the compiled kernel's.
	LegacyKernel bool `json:"legacyKernel,omitempty"`
	// SkipAttribution returns path provenance only (no cut sets or
	// importance measures).
	SkipAttribution bool `json:"skipAttribution,omitempty"`
	// CurrentModelXML is the current topology for mode "validate" (defaults
	// to the request model, which validates trivially fresh).
	CurrentModelXML string `json:"currentModelXml,omitempty"`
	// CurrentDiagram names the current topology diagram (defaults to the
	// request diagram name).
	CurrentDiagram string `json:"currentDiagram,omitempty"`
}

func (a *api) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, genKey, err := req.generate(r.Context(), a.cache, a.generators)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch req.Mode {
	case "", ExplainModeReport:
		resp, err := analyzeExplain(r.Context(), a.cache, genKey, res, &req)
		if err != nil {
			writeAnalysisError(w, err)
			return
		}
		writeRawJSON(w, http.StatusOK, resp.body)
		a.storeWarm(r, resp)
	case ExplainModeValidate:
		xml := req.CurrentModelXML
		if strings.TrimSpace(xml) == "" {
			xml = req.ModelXML
		}
		cm, err := uml.Decode(strings.NewReader(xml))
		if err != nil {
			writeError(w, http.StatusBadRequest, "current model: %v", err)
			return
		}
		name := req.CurrentDiagram
		if name == "" {
			name = req.Diagram
		}
		d, ok := cm.Diagram(name)
		if !ok {
			writeError(w, http.StatusBadRequest, "current model has no diagram %q", name)
			return
		}
		val, err := explain.Validate(r.Context(), res, d)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, val)
	default:
		writeError(w, http.StatusBadRequest, "unknown mode %q (want %q or %q)",
			req.Mode, ExplainModeReport, ExplainModeValidate)
	}
}

// analyzeExplain builds the provenance & attribution report through the
// shared cache, keyed on the generation content hash plus every report knob.
// Like analyzeAvailability, the cache holds the *encoded* response: a warm
// hit skips structure extraction, cut-set expansion, importance attribution
// AND re-marshalling — the stored bytes go straight to the wire. c == nil
// (or an empty genKey from an uncached generation) disables caching.
func analyzeExplain(ctx context.Context, c *cache.Cache, genKey string, res *core.Result, req *explainRequest) (*encodedResponse, error) {
	model := depend.ModelExact
	if req.Formula1 {
		model = depend.ModelFormula1
	}
	compute := func() (any, error) {
		rep, err := explain.Explain(ctx, res, explain.Options{
			Legacy:          req.LegacyKernel,
			Model:           model,
			TopN:            req.Top,
			CutLimit:        req.CutLimit,
			SkipAttribution: req.SkipAttribution,
		})
		if err != nil {
			return nil, err
		}
		return encodeResponse("/api/v1/explain", rep)
	}
	if c == nil || genKey == "" {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		return v.(*encodedResponse), nil
	}
	key := fmt.Sprintf("explain|%s|model=%s|top=%d|cut=%d|legacy=%t|skipattr=%t",
		genKey, model, req.Top, req.CutLimit, req.LegacyKernel, req.SkipAttribution)
	v, _, err := c.Do(ctx, key, compute)
	if err != nil {
		return nil, err
	}
	return v.(*encodedResponse), nil
}
