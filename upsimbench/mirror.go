package main

// The serving path, rebuilt from the program's public packages: the same
// sequence of calls the HTTP handler makes for each route the workloads
// use. With no caches and no pool it is the uncached reference that every
// response is checked against (a fresh generator per request). With a
// result cache, warm cache and generator pool sized like the server's it is
// the traced layer pass, whose responses must equal the handler's byte for
// byte — which proves the replay follows the serving path.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"upsim/internal/cache"
	"upsim/internal/casestudy"
	"upsim/internal/core"
	"upsim/internal/depend"
	"upsim/internal/explain"
	"upsim/internal/lint"
	"upsim/internal/mapping"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
	"upsim/internal/server"
	"upsim/internal/service"
	"upsim/internal/uml"
	"upsim/internal/whatif"
)

// Request bodies, as the handler decodes them (unknown members rejected).
type genReq struct {
	ModelXML          string `json:"modelXml"`
	Diagram           string `json:"diagram"`
	Service           string `json:"service"`
	MappingXML        string `json:"mappingXml"`
	Name              string `json:"name,omitempty"`
	AllowDisconnected bool   `json:"allowDisconnected,omitempty"`
}

type availReq struct {
	genReq
	Formula1     bool  `json:"formula1,omitempty"`
	MCSamples    int   `json:"mcSamples,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
	LegacyKernel bool  `json:"legacyKernel,omitempty"`
}

type qosReq struct {
	genReq
	MaxHops int `json:"maxHops,omitempty"`
}

type explainReq struct {
	genReq
	Mode            string `json:"mode,omitempty"`
	Top             int    `json:"top,omitempty"`
	CutLimit        int    `json:"cutLimit,omitempty"`
	Formula1        bool   `json:"formula1,omitempty"`
	LegacyKernel    bool   `json:"legacyKernel,omitempty"`
	SkipAttribution bool   `json:"skipAttribution,omitempty"`
}

type lintReq struct {
	ModelXML   string `json:"modelXml"`
	Diagram    string `json:"diagram,omitempty"`
	Service    string `json:"service,omitempty"`
	MappingXML string `json:"mappingXml,omitempty"`
}

type whatifServiceReq struct {
	Service    string `json:"service"`
	MappingXML string `json:"mappingXml"`
	Name       string `json:"name,omitempty"`
}

type whatifReq struct {
	ModelXML string             `json:"modelXml"`
	Diagram  string             `json:"diagram"`
	Services []whatifServiceReq `json:"services"`
	Mode     string             `json:"mode,omitempty"`
	Failure  whatif.Failure     `json:"failure,omitempty"`
	Deltas   []whatif.Delta     `json:"deltas,omitempty"`
	Top      int                `json:"top,omitempty"`
	CutLimit int                `json:"cutLimit,omitempty"`
	Formula1 bool               `json:"formula1,omitempty"`
}

// Response bodies, field for field as the handler encodes them.
type availResp struct {
	Exact                float64 `json:"exact"`
	RBDApprox            float64 `json:"rbdApprox"`
	FTApprox             float64 `json:"ftApprox"`
	MonteCarlo           float64 `json:"monteCarlo"`
	MCStdErr             float64 `json:"mcStdErr"`
	DowntimePerYearHours float64 `json:"downtimePerYearHours"`
	Components           int     `json:"components"`
}

type qosResp struct {
	ThroughputMbps    float64 `json:"throughputMbps"`
	MaxHops           int     `json:"maxHops"`
	Responsiveness    float64 `json:"responsiveness"`
	Availability      float64 `json:"availability"`
	PathsWithinBudget int     `json:"pathsWithinBudget"`
	PathsTotal        int     `json:"pathsTotal"`
}

type lintResp struct {
	lint.Report
	ServiceError string `json:"serviceError,omitempty"`
}

type rankedPath struct {
	Path           string   `json:"path"`
	Hops           int      `json:"hops"`
	Cost           float64  `json:"cost"`
	BottleneckMbps float64  `json:"bottleneckMbps,omitempty"`
	Channels       []string `json:"channels,omitempty"`
}

type pathsResp struct {
	Paths        []string               `json:"paths"`
	PathCount    int                    `json:"pathCount"`
	EdgeVisits   int                    `json:"edgeVisits"`
	NodesVisited int                    `json:"nodesVisited"`
	MaxStack     int                    `json:"maxStack"`
	Pruned       int                    `json:"pruned"`
	Truncated    bool                   `json:"truncated"`
	CostMetric   string                 `json:"costMetric,omitempty"`
	Ranked       []rankedPath           `json:"ranked,omitempty"`
	PathStats    explain.PathStatistics `json:"pathStats"`
}

type whatifResp struct {
	Mode     string                     `json:"mode"`
	Services []whatif.ServiceStatus     `json:"services"`
	Impact   *whatif.ImpactReport       `json:"impact,omitempty"`
	Apply    *whatif.ApplyReport        `json:"apply,omitempty"`
	Critical []whatif.CriticalComponent `json:"critical,omitempty"`
}

type errorResp struct {
	Error string `json:"error"`
}

// encoded pairs an analysis value with its memoised JSON, like the
// handler's cached responses.
type encoded struct {
	value any
	body  []byte
}

// pathsWorkLimit mirrors the handler's ranked-discovery work bound
// (unexported in internal/server).
const pathsWorkLimit = 1 << 26

// Warm-lane key namespaces, as the handler builds them.
const (
	warmAvail   = "warm|avail|"
	warmQoS     = "warm|qos|"
	warmExplain = "warm|explain|"
	warmBatch   = "warm|batch|"
	warmItem    = "warm|item|"
)

// servePath answers requests the way the handler does.
type servePath struct {
	cache *cache.Cache // nil: no result cache (the uncached reference)
	warm  *cache.Cache // nil: no warm lane
	pool  *core.GeneratorPool
	// trace records spans around every layer call.
	trace bool
	// caseXML is the built-in case-study model the GET paths route serves.
	caseXML string
	// gens collects the distinct generations computed (pathdisc stats);
	// nil disables.
	gens map[*core.Result]bool
}

// newReferencePath is the uncached, fresh-generator serving path.
func newReferencePath() (*servePath, error) {
	x, err := caseStudyXML()
	if err != nil {
		return nil, err
	}
	return &servePath{caseXML: x}, nil
}

// newLayerPath is the serving path with caches and a pool sized like the
// server's defaults, prewarmed the same way.
func newLayerPath(ctx context.Context, trace bool) (*servePath, error) {
	x, err := caseStudyXML()
	if err != nil {
		return nil, err
	}
	c := cache.New(0)
	p := &servePath{
		cache:   c,
		warm:    cache.New(0),
		pool:    core.NewGeneratorPool(c, 0, 0),
		trace:   trace,
		caseXML: x,
		gens:    map[*core.Result]bool{},
	}
	g, err := p.pool.Acquire(ctx, x, casestudy.DiagramName)
	if err != nil {
		return nil, err
	}
	p.pool.Release(g)
	return p, nil
}

// caseStudyXML encodes the built-in model exactly as the GET paths route
// does.
func caseStudyXML() (string, error) {
	m, err := casestudy.BuildModel()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := uml.Encode(&b, m); err != nil {
		return "", err
	}
	return b.String(), nil
}

// begin opens a span under ctx's span when tracing; endSpan closes it.
func (p *servePath) begin(ctx context.Context, name string) (context.Context, *obs.Span) {
	if !p.trace {
		return ctx, nil
	}
	return obs.StartSpan(ctx, name)
}

func endSpan(sp *obs.Span) {
	if sp != nil {
		sp.End()
	}
}

// httpError is a non-2xx answer.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

func unprocessable(err error) error {
	return &httpError{http.StatusUnprocessableEntity, err.Error()}
}

// serve answers one request: status and body bytes.
func (p *servePath) serve(ctx context.Context, method, target string, body []byte) (int, []byte) {
	out, err := p.route(ctx, method, target, body)
	if err != nil {
		status := http.StatusInternalServerError
		if he, ok := err.(*httpError); ok {
			status = he.status
		}
		b, _ := json.Marshal(errorResp{Error: err.Error()})
		return status, append(b, '\n')
	}
	return http.StatusOK, out
}

func (p *servePath) route(ctx context.Context, method, target string, body []byte) ([]byte, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	switch {
	case method == "GET" && u.Path == routePaths:
		return p.pathsGet(ctx, u.Query())
	case method != "POST":
		return nil, badRequest("unsupported %s %s", method, u.Path)
	}
	prefix := map[string]string{
		routeAvailability: warmAvail, routeQoS: warmQoS, routeExplain: warmExplain, routeBatch: warmBatch,
	}[u.Path]
	var warmKey string
	if prefix != "" && p.warm != nil {
		_, sp := p.begin(ctx, "server.warm_lookup")
		sum := sha256.Sum256(body)
		warmKey = prefix + hex.EncodeToString(sum[:])
		v, ok := p.warm.Get(warmKey)
		endSpan(sp)
		if ok {
			return v.([]byte), nil
		}
	}
	var out []byte
	switch u.Path {
	case routeAvailability:
		out, err = p.availability(ctx, body)
	case routeQoS:
		out, err = p.qos(ctx, body)
	case routeExplain:
		out, err = p.explainRoute(ctx, body)
	case routeBatch:
		out, err = p.batch(ctx, body)
	case routeLint:
		return p.lintRoute(ctx, body)
	case routeWhatIf:
		return p.whatifRoute(ctx, body)
	default:
		return nil, badRequest("unsupported route %s", u.Path)
	}
	if err == nil && warmKey != "" {
		p.warm.Add(warmKey, out)
	}
	return out, err
}

// decode reads a body the way the handler does: strict, one JSON value.
func (p *servePath) decode(ctx context.Context, body []byte, v any) error {
	_, sp := p.begin(ctx, "server.decode")
	defer endSpan(sp)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	return nil
}

// encode marshals a response the way the handler does (json.Marshal plus
// the newline json.Encoder appends).
func (p *servePath) encode(ctx context.Context, v any) ([]byte, error) {
	_, sp := p.begin(ctx, "server.encode")
	defer endSpan(sp)
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// decodeModel parses model XML (the lint and what-if routes, and every
// request of the uncached path).
func (p *servePath) decodeModel(ctx context.Context, xml string) (*uml.Model, error) {
	_, sp := p.begin(ctx, "uml.decode")
	defer endSpan(sp)
	if sp != nil {
		sp.SetAttr("bytes", len(xml))
	}
	return uml.Decode(strings.NewReader(xml))
}

// freshGenerator decodes the model and builds a generator (Step 5).
func (p *servePath) freshGenerator(ctx context.Context, xml, diagram string) (*core.Generator, error) {
	if strings.TrimSpace(xml) == "" {
		return nil, badRequest("modelXml is required")
	}
	if diagram == "" {
		return nil, badRequest("diagram is required")
	}
	m, err := p.decodeModel(ctx, xml)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	gctx, sp := p.begin(ctx, "core.new_generator")
	defer endSpan(sp)
	g, err := core.NewGeneratorContext(gctx, m, diagram)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return g, nil
}

// acquire takes a generator from the pool, or builds a fresh one without
// a pool. release must be called when done.
func (p *servePath) acquire(ctx context.Context, xml, diagram string) (*core.Generator, func(), error) {
	if p.pool == nil {
		g, err := p.freshGenerator(ctx, xml, diagram)
		return g, func() {}, err
	}
	if strings.TrimSpace(xml) == "" {
		return nil, nil, badRequest("modelXml is required")
	}
	if diagram == "" {
		return nil, nil, badRequest("diagram is required")
	}
	actx, sp := p.begin(ctx, "core.pool_acquire")
	g, err := p.pool.Acquire(actx, xml, diagram)
	endSpan(sp)
	if err != nil {
		return nil, nil, badRequest("%v", err)
	}
	return g, func() { p.pool.Release(g) }, nil
}

// generate mirrors the handler's generation step: acquire, resolve the
// service, parse the mapping, key, then generate through the cache.
func (p *servePath) generate(ctx context.Context, req *genReq) (*core.Result, string, error) {
	gen, release, err := p.acquire(ctx, req.ModelXML, req.Diagram)
	if err != nil {
		return nil, "", err
	}
	defer release()
	_, sp := p.begin(ctx, "service.from_activity")
	var svc *service.Composite
	act, ok := gen.Model().Activity(req.Service)
	if !ok {
		err = badRequest("model has no activity %q", req.Service)
	} else {
		svc, err = service.FromActivity(act)
	}
	endSpan(sp)
	if err != nil {
		return nil, "", badRequest("%v", err)
	}
	_, sp = p.begin(ctx, "mapping.parse")
	mp, err := mapping.Parse(strings.NewReader(req.MappingXML))
	endSpan(sp)
	if err != nil {
		return nil, "", badRequest("%v", err)
	}
	name := req.Name
	if name == "" {
		name = "upsim"
	}
	opts := core.Options{AllowDisconnected: req.AllowDisconnected}
	_, sp = p.begin(ctx, "core.cachekey")
	key, err := gen.CacheKey(svc, mp, name, opts)
	endSpan(sp)
	if err != nil {
		return nil, "", badRequest("%v", err)
	}
	gctx, sp := p.begin(ctx, "core.generate")
	res, err := gen.WithCache(p.cache).GenerateContext(gctx, svc, mp, name, opts)
	endSpan(sp)
	if err != nil {
		return nil, "", badRequest("%v", err)
	}
	if p.gens != nil {
		p.gens[res] = true
	}
	return res, key, nil
}

// cached runs compute through the result cache under key (directly when
// the path has no cache or the generation was uncached).
func (p *servePath) cached(ctx context.Context, genKey, key string, compute func(context.Context) (*encoded, error)) (*encoded, error) {
	if p.cache == nil || genKey == "" {
		return compute(ctx)
	}
	cctx, sp := p.begin(ctx, "cache.do")
	defer endSpan(sp)
	v, _, err := p.cache.Do(ctx, key, func() (any, error) { return compute(cctx) })
	if err != nil {
		return nil, err
	}
	return v.(*encoded), nil
}

func (p *servePath) encoded(ctx context.Context, v any) (*encoded, error) {
	b, err := p.encode(ctx, v)
	if err != nil {
		return nil, err
	}
	return &encoded{value: v, body: b}, nil
}

func (p *servePath) analyzeAvailability(ctx context.Context, genKey string, res *core.Result, formula1 bool, samples int, seed int64, legacy bool) (*encoded, error) {
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
	key := fmt.Sprintf("avail|%s|model=%s|mc=%d|seed=%d|legacy=%t", genKey, model, samples, seed, legacy)
	return p.cached(ctx, genKey, key, func(ctx context.Context) (*encoded, error) {
		rep, err := depend.AnalyzeWithOptions(ctx, res, model, samples, seed, depend.AnalyzeOptions{Legacy: legacy})
		if err != nil {
			return nil, err
		}
		return p.encoded(ctx, availResp{
			Exact:                rep.Exact,
			RBDApprox:            rep.RBDApprox,
			FTApprox:             rep.FTApprox,
			MonteCarlo:           rep.MonteCarlo,
			MCStdErr:             rep.MCStdErr,
			DowntimePerYearHours: rep.DowntimePerYearHours,
			Components:           rep.Components,
		})
	})
}

func (p *servePath) analyzeQoS(ctx context.Context, genKey string, res *core.Result, maxHops int) (*encoded, error) {
	if maxHops <= 0 {
		maxHops = 8
	}
	key := fmt.Sprintf("qos|%s|hops=%d", genKey, maxHops)
	return p.cached(ctx, genKey, key, func(ctx context.Context) (*encoded, error) {
		_, sp := p.begin(ctx, "depend.throughput")
		tp, err := depend.Throughput(res)
		endSpan(sp)
		if err != nil {
			return nil, err
		}
		_, sp = p.begin(ctx, "depend.responsiveness")
		rr, err := depend.Responsiveness(res, depend.ModelExact, maxHops)
		endSpan(sp)
		if err != nil {
			return nil, err
		}
		return p.encoded(ctx, qosResp{
			ThroughputMbps:    tp.Service,
			MaxHops:           rr.MaxHops,
			Responsiveness:    rr.Responsiveness,
			Availability:      rr.Availability,
			PathsWithinBudget: rr.PathsWithinBudget,
			PathsTotal:        rr.PathsTotal,
		})
	})
}

func (p *servePath) availability(ctx context.Context, body []byte) ([]byte, error) {
	var req availReq
	if err := p.decode(ctx, body, &req); err != nil {
		return nil, err
	}
	res, genKey, err := p.generate(ctx, &req.genReq)
	if err != nil {
		return nil, err
	}
	out, err := p.analyzeAvailability(ctx, genKey, res, req.Formula1, req.MCSamples, req.Seed, req.LegacyKernel)
	if err != nil {
		return nil, unprocessable(err)
	}
	return out.body, nil
}

func (p *servePath) qos(ctx context.Context, body []byte) ([]byte, error) {
	var req qosReq
	if err := p.decode(ctx, body, &req); err != nil {
		return nil, err
	}
	res, genKey, err := p.generate(ctx, &req.genReq)
	if err != nil {
		return nil, err
	}
	out, err := p.analyzeQoS(ctx, genKey, res, req.MaxHops)
	if err != nil {
		return nil, unprocessable(err)
	}
	return out.body, nil
}

func (p *servePath) explainRoute(ctx context.Context, body []byte) ([]byte, error) {
	var req explainReq
	if err := p.decode(ctx, body, &req); err != nil {
		return nil, err
	}
	res, genKey, err := p.generate(ctx, &req.genReq)
	if err != nil {
		return nil, err
	}
	if req.Mode != "" && req.Mode != server.ExplainModeReport {
		return nil, badRequest("unsupported explain mode %q", req.Mode)
	}
	model := depend.ModelExact
	if req.Formula1 {
		model = depend.ModelFormula1
	}
	key := fmt.Sprintf("explain|%s|model=%s|top=%d|cut=%d|legacy=%t|skipattr=%t",
		genKey, model, req.Top, req.CutLimit, req.LegacyKernel, req.SkipAttribution)
	out, err := p.cached(ctx, genKey, key, func(ctx context.Context) (*encoded, error) {
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
		return p.encoded(ctx, rep)
	})
	if err != nil {
		return nil, unprocessable(err)
	}
	return out.body, nil
}

func (p *servePath) pathsGet(ctx context.Context, q url.Values) ([]byte, error) {
	from, to := q.Get("from"), q.Get("to")
	if from == "" || to == "" {
		return nil, badRequest("from and to are required")
	}
	// Every workload asks for ranked discovery; full enumeration is not
	// mirrored.
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k <= 0 {
		return nil, badRequest("paths: only ranked discovery (k > 0) is part of a workload")
	}
	gen, release, err := p.acquire(ctx, p.caseXML, casestudy.DiagramName)
	if err != nil {
		return nil, err
	}
	defer release()
	metric, err := pathdisc.ParseCostMetric(q.Get("cost"))
	if err != nil {
		return nil, badRequest("%v", err)
	}
	c := gen.Compiled()
	_, sp := p.begin(ctx, "pathdisc.kshortest")
	paths, stats, err := c.KShortest(from, to, pathdisc.Options{K: k, CostMetric: metric, MaxWork: pathsWorkLimit})
	endSpan(sp)
	if err != nil {
		return nil, unprocessable(err)
	}
	_, sp = p.begin(ctx, "explain.path_metrics")
	resp := pathsResp{
		PathCount:    stats.Paths,
		EdgeVisits:   stats.EdgeVisits,
		NodesVisited: stats.NodeVisits,
		MaxStack:     stats.MaxStack,
		Pruned:       stats.Pruned,
		Truncated:    stats.Truncated,
		PathStats:    explain.Statistics(paths),
		CostMetric:   metric.String(),
	}
	var links []*uml.Link
	if d, ok := gen.Model().Diagram(casestudy.DiagramName); ok {
		links = d.Links()
	}
	for _, pa := range paths {
		resp.Paths = append(resp.Paths, pa.String())
		_, bottleneck, channels := explain.PathMetrics(links, pa)
		resp.Ranked = append(resp.Ranked, rankedPath{
			Path:           pa.String(),
			Hops:           pa.Len(),
			Cost:           c.PathCost(metric, pa),
			BottleneckMbps: bottleneck,
			Channels:       channels,
		})
	}
	endSpan(sp)
	return p.encode(ctx, resp)
}

func (p *servePath) lintRoute(ctx context.Context, body []byte) ([]byte, error) {
	var req lintReq
	if err := p.decode(ctx, body, &req); err != nil {
		return nil, err
	}
	if strings.TrimSpace(req.ModelXML) == "" {
		return nil, badRequest("modelXml is required")
	}
	m, err := p.decodeModel(ctx, req.ModelXML)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	resp := lintResp{}
	var svc *service.Composite
	if req.Service != "" {
		act, ok := m.Activity(req.Service)
		if !ok {
			return nil, badRequest("model has no activity %q", req.Service)
		}
		if svc, err = service.FromActivity(act); err != nil {
			resp.ServiceError = err.Error()
			svc = nil
		}
	}
	var mp *mapping.Mapping
	if strings.TrimSpace(req.MappingXML) != "" {
		_, sp := p.begin(ctx, "mapping.parse")
		mp, err = mapping.Parse(strings.NewReader(req.MappingXML))
		endSpan(sp)
		if err != nil {
			return nil, badRequest("%v", err)
		}
	}
	_, sp := p.begin(ctx, "lint.run")
	in, err := lint.NewInput(m, req.Diagram, svc, mp)
	var rep *lint.Report
	if err == nil {
		rep, err = lint.Default().Run(in)
	}
	endSpan(sp)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	resp.Report = *rep
	return p.encode(ctx, resp)
}

func (p *servePath) whatifRoute(ctx context.Context, body []byte) ([]byte, error) {
	var req whatifReq
	if err := p.decode(ctx, body, &req); err != nil {
		return nil, err
	}
	if len(req.Services) == 0 {
		return nil, badRequest("services is required (at least one registration)")
	}
	mode := req.Mode
	if mode == "" {
		mode = server.WhatIfModeFailure
	}
	model := depend.ModelExact
	if req.Formula1 {
		model = depend.ModelFormula1
	}
	// The engine owns the live topology, so the handler always builds a
	// fresh generator here, pool or not.
	gen, err := p.freshGenerator(ctx, req.ModelXML, req.Diagram)
	if err != nil {
		return nil, err
	}
	_, sp := p.begin(ctx, "whatif.new")
	eng := whatif.New(gen.Graph(), p.cache)
	endSpan(sp)
	for _, s := range req.Services {
		gr := genReq{ModelXML: req.ModelXML, Diagram: req.Diagram, Service: s.Service, MappingXML: s.MappingXML, Name: s.Name}
		if gr.Name == "" {
			gr.Name = s.Service
		}
		res, genKey, err := p.generate(ctx, &gr)
		if err != nil {
			return nil, badRequest("service %q: %v", s.Service, err)
		}
		_, sp := p.begin(ctx, "whatif.register")
		err = eng.Register(gr.Name, genKey, res, model)
		endSpan(sp)
		if err != nil {
			return nil, unprocessable(err)
		}
	}
	resp := whatifResp{Mode: mode}
	switch mode {
	case server.WhatIfModeFailure:
		_, sp := p.begin(ctx, "whatif.impact")
		resp.Impact, err = eng.Impact(req.Failure)
		endSpan(sp)
	case server.WhatIfModeApply:
		if len(req.Deltas) == 0 {
			return nil, badRequest("mode %q needs at least one delta", mode)
		}
		_, sp := p.begin(ctx, "whatif.apply")
		resp.Apply, err = eng.Apply(req.Deltas...)
		endSpan(sp)
	case server.WhatIfModeCritical:
	default:
		return nil, badRequest("unknown mode %q", mode)
	}
	if err != nil {
		return nil, unprocessable(err)
	}
	if mode == server.WhatIfModeCritical || req.Top > 0 {
		cctx, sp := p.begin(ctx, "whatif.critical")
		resp.Critical, err = eng.Critical(cctx, req.Top, req.CutLimit)
		endSpan(sp)
		if err != nil {
			return nil, unprocessable(err)
		}
	}
	resp.Services = eng.Services()
	return p.encode(ctx, resp)
}

// batch mirrors POST /api/v1/batch with the items run in order (the
// handler fans them out; the layer pass keeps one client and one thread so
// self-times add up, and the handler pass measures the fan-out gain).
func (p *servePath) batch(ctx context.Context, body []byte) ([]byte, error) {
	var req server.BatchRequest
	if err := p.decode(ctx, body, &req); err != nil {
		return nil, err
	}
	if len(req.Items) == 0 {
		return nil, badRequest("batch: items is required")
	}
	if len(req.Items) > server.MaxBatchItems {
		return nil, badRequest("batch: %d items exceed the limit of %d", len(req.Items), server.MaxBatchItems)
	}
	resp := server.BatchResponse{Results: make([]server.BatchResult, len(req.Items))}
	for i := range req.Items {
		ictx, sp := p.begin(ctx, "server.batch_item")
		resp.Results[i] = p.batchItem(ictx, i, &req.Items[i])
		endSpan(sp)
		if resp.Results[i].Error != "" {
			resp.Errors++
		}
	}
	if p.cache != nil {
		resp.Cache = p.cache.Stats()
	}
	return p.encode(ctx, resp)
}

func (p *servePath) batchItem(ctx context.Context, i int, it *server.BatchItem) server.BatchResult {
	out := server.BatchResult{Index: i, Op: it.Op}
	var wkey string
	if p.warm != nil {
		_, sp := p.begin(ctx, "server.warm_lookup")
		if b, err := json.Marshal(it); err == nil {
			sum := sha256.Sum256(b)
			wkey = warmItem + hex.EncodeToString(sum[:])
		}
		v, ok := p.warm.Get(wkey)
		endSpan(sp)
		if ok {
			out.Result = v
			return out
		}
	}
	gr := genReq{
		ModelXML: it.ModelXML, Diagram: it.Diagram, Service: it.Service,
		MappingXML: it.MappingXML, Name: it.Name, AllowDisconnected: it.AllowDisconnected,
	}
	res, genKey, err := p.generate(ctx, &gr)
	if err != nil {
		out.Error = err.Error()
		return out
	}
	var enc *encoded
	switch it.Op {
	case server.OpAvailability:
		enc, err = p.analyzeAvailability(ctx, genKey, res, it.Formula1, it.MCSamples, it.Seed, it.LegacyKernel)
	case server.OpQoS:
		enc, err = p.analyzeQoS(ctx, genKey, res, it.MaxHops)
	default:
		err = fmt.Errorf("batch op %q is not part of any workload", it.Op)
	}
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.Result = enc.value
	if wkey != "" {
		p.warm.Add(wkey, out.Result)
	}
	return out
}
