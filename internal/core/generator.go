// Package core implements the paper's primary contribution: the automated
// generation of user-perceived service infrastructure models (UPSIMs).
// Given an ICT infrastructure model (UML class + object diagrams), a
// composite service description (UML activity diagram) and a service mapping
// (XML pairs of requester and provider per atomic service), the Generator
// executes Steps 5–8 of the methodology (Section V-B):
//
//  5. import the UML models into the VPM model space,
//  6. import the service mapping pairs with the custom importer,
//  7. discover all simple paths between requester and provider of every
//     atomic service and store them in a reserved subtree of the model
//     space,
//  8. merge the paths into a single UML object diagram — the UPSIM
//     (Definition 2) — preserving the instance signatures and therefore all
//     static class properties for downstream dependability analysis.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"upsim/internal/cache"
	"upsim/internal/importers"
	"upsim/internal/lint"
	"upsim/internal/mapping"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
	"upsim/internal/service"
	"upsim/internal/topology"
	"upsim/internal/uml"
	"upsim/internal/vpm"
)

// MergeSemantics selects how discovered paths become the UPSIM topology.
type MergeSemantics uint8

const (
	// MergeInduced keeps every infrastructure link whose both endpoints
	// appear in some path — the paper's Step 8 "filter on the complete
	// topology, where only nodes which appear at least once in the
	// discovered paths are preserved" (Section VI-H).
	MergeInduced MergeSemantics = iota
	// MergeTraversed keeps only links actually traversed by some path, an
	// alternative semantics used by the merge ablation.
	MergeTraversed
)

// String returns the merge semantics name.
func (m MergeSemantics) String() string {
	switch m {
	case MergeInduced:
		return "induced"
	case MergeTraversed:
		return "traversed"
	}
	return fmt.Sprintf("MergeSemantics(%d)", uint8(m))
}

// LintMode controls the pre-flight lint gate of the generator: whether the
// built-in rule registry (internal/lint) runs over the model, service and
// mapping before Step 6, and what happens to its findings.
type LintMode uint8

const (
	// LintOff skips the pre-flight lint entirely (the zero value, matching
	// the paper's pipeline, which assumes well-formed inputs).
	LintOff LintMode = iota
	// LintWarn runs the linter and logs every warning- and error-severity
	// finding through obs.Logger, but never stops the pipeline.
	LintWarn
	// LintFail runs the linter and aborts the generation with a *lint.Error
	// (carrying the full report) when any error-severity finding exists.
	LintFail
)

// String returns the lint mode name.
func (m LintMode) String() string {
	switch m {
	case LintOff:
		return "off"
	case LintWarn:
		return "warn"
	case LintFail:
		return "fail"
	}
	return fmt.Sprintf("LintMode(%d)", uint8(m))
}

// Options tunes the generator. The zero value reproduces the paper: DFS all
// simple paths on the compiled kernel, induced merge (MergeInduced),
// unbounded enumeration, disconnected pairs are errors, and no lint gate
// (LintOff). Every default below is asserted by
// TestOptionsZeroValueDefaults.
type Options struct {
	// Merge selects the Step 8 merge semantics. The zero value MergeInduced
	// is the paper's Section VI-H filter (keep every infrastructure link
	// whose both endpoints appear in some path).
	Merge MergeSemantics
	// Paths tunes Step 7 (depth/count bounds, parallel-edge collapsing).
	// The zero value enumerates every simple path, unbounded, without
	// collapsing. Paths.K > 0 switches to ranked discovery: the K cheapest
	// paths under Paths.CostMetric. K = 1 is the redundancy ablation — one
	// minimum-cost path per atomic service, deliberately violating
	// Definition 2 (all redundant paths).
	Paths pathdisc.Options
	// DiscoveryWorkers bounds the worker pool that runs the per-atomic-
	// service discovery loop of Step 7 concurrently. 0 (the default) sizes
	// the pool to min(GOMAXPROCS, number of atomic services); 1 forces the
	// sequential loop; larger values cap the pool. The Result is
	// deterministic regardless of pool size: per-service path sets keep the
	// composite's execution order.
	DiscoveryWorkers int
	// AllowDisconnected produces a partial UPSIM instead of failing when an
	// atomic service has no path between requester and provider. The
	// default (false) makes a disconnected pair an error.
	AllowDisconnected bool
	// Lint selects the pre-flight lint gate. The zero value LintOff skips
	// linting entirely, matching the paper's pipeline; LintWarn logs
	// findings, LintFail aborts on error-severity findings.
	Lint LintMode
}

// discoveryWorkers resolves the effective Step 7 pool size for n atomic
// services.
func (o Options) discoveryWorkers(n int) int {
	w := o.DiscoveryWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ServicePaths records Step 7 output for one atomic service.
type ServicePaths struct {
	AtomicService string
	Requester     string
	Provider      string
	Paths         []pathdisc.Path
	Stats         pathdisc.Stats
}

// Result is the outcome of one UPSIM generation.
type Result struct {
	// Name is the UPSIM (and diagram) name.
	Name string
	// UPSIM is the generated UML object diagram, living in the source
	// model; its instances share the classifiers of the infrastructure so
	// every dependability property remains reachable (Section V-E).
	UPSIM *uml.ObjectDiagram
	// Source is the infrastructure object diagram the UPSIM was generated
	// from. Path edge IDs in Services index into Source.Links().
	Source *uml.ObjectDiagram
	// Graph is the topology view of the UPSIM.
	Graph *topology.Graph
	// Services holds the per-atomic-service path sets in execution order.
	Services []ServicePaths
	// TotalPaths is the number of discovered paths over all atomic
	// services.
	TotalPaths int
	// EdgeVisits aggregates the search effort of Step 7.
	EdgeVisits int
	// Pruned aggregates the expansions the compiled kernel's reachability
	// pass skipped in Step 7.
	Pruned int
}

// PathsFor returns the discovered paths of one atomic service.
func (r *Result) PathsFor(atomicService string) ([]pathdisc.Path, bool) {
	for _, sp := range r.Services {
		if sp.AtomicService == atomicService {
			return sp.Paths, true
		}
	}
	return nil, false
}

// NodeNames returns the sorted node names of the UPSIM.
func (r *Result) NodeNames() []string { return r.Graph.NodeNames() }

// Generator owns the model space for one infrastructure model and runs the
// Step 5–8 pipeline. A Generator is reusable: Generate may be called many
// times with different services, mappings and perspectives against the same
// imported infrastructure, which is exactly the dynamicity argument of
// Section V-A3 (only the mapping changes between user perspectives).
//
// A Generator is safe for concurrent use: an internal mutex serialises the
// pipeline's model-space and model mutations, so concurrent Generate calls
// with distinct inputs queue, while — with a cache attached (WithCache) —
// concurrent identical calls collapse into one computation via singleflight
// and the rest share the cached Result.
type Generator struct {
	model       *uml.Model
	diagramName string
	space       *vpm.ModelSpace
	graph       *topology.Graph
	compiled    *pathdisc.Compiled // CSR kernel, built once per model, immutable

	mu          sync.Mutex // guards the fields below and the pipeline's mutations
	mappingSeq  int
	cache       *cache.Cache
	modelDigest string // canonical model hash, fixed at WithCache time
	digestErr   error

	// derived names every artifact a Generate call grafted onto the shared
	// model and model space (output diagram, mapping subtree, paths
	// subtree), so ResetDerived can unhook them when the generator returns
	// to a GeneratorPool.
	derived []derivedNames
	poolKey string // set by GeneratorPool.Acquire; empty for unpooled use
}

// derivedNames records the per-generation artifact names: the UPSIM output
// diagram (which also names the paths.<name> subtree) and the sequenced
// mapping import.
type derivedNames struct {
	diagram string
	mapping string
}

// NewGenerator imports the model into a fresh model space (Step 5) and
// prepares the graph view of the named infrastructure object diagram.
func NewGenerator(m *uml.Model, diagramName string) (*Generator, error) {
	return NewGeneratorContext(context.Background(), m, diagramName)
}

// NewGeneratorContext is NewGenerator under a context: when ctx carries an
// obs span, Step 5 (UML import) is recorded as a child span with the
// imported topology size.
func NewGeneratorContext(ctx context.Context, m *uml.Model, diagramName string) (*Generator, error) {
	_, sp := obs.StartSpan(ctx, "step5.import_uml")
	defer sp.End()
	if m == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	d, ok := m.Diagram(diagramName)
	if !ok {
		return nil, fmt.Errorf("core: model %q has no object diagram %q", m.Name(), diagramName)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid model: %w", err)
	}
	// The space comes from the package pool: a recycled space keeps the
	// arena blocks and index buckets of its previous life, so the
	// one-entity-per-UML-element import below bump-allocates instead of
	// hitting the heap per element (DESIGN.md §14).
	space := vpm.GetSpace()
	im, err := importers.NewUMLImporter(space)
	if err != nil {
		vpm.PutSpace(space)
		return nil, err
	}
	if err := im.Import(m); err != nil {
		vpm.PutSpace(space)
		return nil, err
	}
	g := topology.FromObjectDiagram(d)
	sp.SetAttr("nodes", g.NumNodes())
	sp.SetAttr("edges", g.NumEdges())
	// Compile the CSR kernel once per model: every Generate call — across
	// mapping pairs, user perspectives and batch items — reuses it, so the
	// string-to-index lowering and the adjacency layout are paid exactly once.
	compiled := pathdisc.Compile(g)
	// Install the ranked-discovery cost view from the diagram's stereotype
	// attributes, resolved once here, never during search. Edge ID i is
	// links[i] (topology.FromObjectDiagram), so patched-in edges with IDs
	// beyond the diagram resolve to the hop fallback — identically on a
	// patched kernel and on a recompile of the mutated graph.
	links := d.Links()
	compiled.SetEdgeCosts(func(edgeID int) (float64, bool) {
		if edgeID < 0 || edgeID >= len(links) {
			return 0, false
		}
		if tp, ok := links[edgeID].Property("throughput"); ok && tp.AsReal() > 0 {
			return tp.AsReal(), true
		}
		return 0, false
	})
	return &Generator{
		model:       m,
		diagramName: diagramName,
		space:       space,
		graph:       g,
		compiled:    compiled,
	}, nil
}

// Space exposes the underlying model space (read-mostly; used by tests and
// by tooling that wants to inspect imported entities and stored paths).
func (g *Generator) Space() *vpm.ModelSpace { return g.space }

// Graph returns the graph view of the infrastructure diagram.
func (g *Generator) Graph() *topology.Graph { return g.graph }

// Compiled returns the CSR path-discovery kernel compiled from the
// infrastructure graph at construction time. It is immutable and safe for
// concurrent use; callers that enumerate paths outside the pipeline (the
// HTTP /paths endpoint, tooling) should use it rather than compile the
// graph again.
func (g *Generator) Compiled() *pathdisc.Compiled { return g.compiled }

// Model returns the source UML model.
func (g *Generator) Model() *uml.Model { return g.model }

// Generate runs Steps 6–8 for one composite service, mapping and UPSIM name.
// The name must be unique per generator invocation (it names the mapping
// import, the stored path subtree and the output object diagram).
func (g *Generator) Generate(svc *service.Composite, mp *mapping.Mapping, name string, opts Options) (*Result, error) {
	return g.GenerateContext(context.Background(), svc, mp, name, opts)
}

// GenerateContext is Generate under a context: when ctx carries an obs
// span, each pipeline stage (Step 6 mapping import, Step 7 path discovery
// with one child span per atomic service, Step 8 merge) is recorded with
// its wall time and outcome attributes.
//
// With a cache attached (WithCache), the request is content-addressed first
// (CacheKey): a hit returns the shared, immutable Result without running
// any pipeline step — the trace then carries a single "cache" span instead
// of the step6/step7/step8 stages — and concurrent identical misses compute
// once (singleflight). Errors are never cached.
func (g *Generator) GenerateContext(ctx context.Context, svc *service.Composite, mp *mapping.Mapping, name string, opts Options) (*Result, error) {
	if svc == nil {
		return nil, fmt.Errorf("core: nil service")
	}
	if name == "" {
		return nil, fmt.Errorf("core: empty UPSIM name")
	}
	if c := g.Cache(); c != nil {
		key, err := g.CacheKey(svc, mp, name, opts)
		if err != nil {
			return nil, err
		}
		v, outcome, err := c.Do(ctx, key, func() (any, error) {
			return g.generate(ctx, svc, mp, name, opts)
		})
		if err != nil {
			return nil, err
		}
		if outcome != cache.OutcomeMiss {
			_, sp := obs.StartSpan(ctx, "cache")
			sp.SetAttr("outcome", outcome.String())
			sp.SetAttr("key", key[:12])
			sp.End()
		}
		return v.(*Result), nil
	}
	return g.generate(ctx, svc, mp, name, opts)
}

// generate runs the actual Step 6–8 pipeline under the generator mutex.
func (g *Generator) generate(ctx context.Context, svc *service.Composite, mp *mapping.Mapping, name string, opts Options) (*Result, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, taken := g.model.Diagram(name); taken {
		return nil, fmt.Errorf("core: model already has an object diagram named %q", name)
	}

	// Pre-flight lint gate: runs before CheckMapping so that a failing run
	// reports every defect at once (a missing pair, a dangling reference and
	// a disconnected pair all appear in one *lint.Error) instead of the
	// pipeline stopping at the first.
	if opts.Lint != LintOff {
		if err := g.lintGate(ctx, svc, mp, name, opts.Lint); err != nil {
			return nil, err
		}
	}
	if err := svc.CheckMapping(mp); err != nil {
		return nil, err
	}

	// Step 6: import the service mapping pairs. The importer verifies every
	// referenced component against the infrastructure diagram.
	_, span6 := obs.StartSpan(ctx, "step6.import_mapping")
	g.mappingSeq++
	mappingName := fmt.Sprintf("%s-%d", name, g.mappingSeq)
	// Record the artifact names before any state is created: a failed step
	// may leave a partial graft (an imported mapping whose discovery then
	// fails), and ResetDerived must unhook those too. Cleanup of names that
	// never materialised is a no-op.
	g.derived = append(g.derived, derivedNames{diagram: name, mapping: mappingName})
	mi, err := importers.NewMappingImporter(g.space)
	if err != nil {
		span6.End()
		return nil, err
	}
	diagramFQN := importers.DiagramFQN(g.model.Name(), g.diagramName)
	if err := mi.Import(mappingName, mp, diagramFQN); err != nil {
		span6.End()
		return nil, err
	}
	span6.SetAttr("pairs", len(mp.Pairs()))
	span6.End()

	// Step 7: path discovery per atomic service. Pair resolution stays
	// sequential (it reads the model space); the discoveries themselves fan
	// out over a bounded worker pool (Options.DiscoveryWorkers) against the
	// read-only topology graph. Tasks are claimed in execution order and
	// results assembled by index, so the Result — including the first error
	// reported when several pairs fail — is identical to the sequential
	// loop's, whatever the pool size.
	ctx7, span7 := obs.StartSpan(ctx, "step7.pathdisc")
	defer span7.End()
	if opts.Paths.K > 0 {
		span7.SetAttr("algorithm", "csr-kbest")
	} else {
		span7.SetAttr("algorithm", "csr-dfs")
	}
	pairs, err := svc.RelevantPairs(mp)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: name}
	sps := make([]ServicePaths, len(pairs))
	for i, p := range pairs {
		req, prov, err := importers.ResolvePair(g.space, mappingName, p.AtomicService)
		if err != nil {
			return nil, err
		}
		sps[i] = ServicePaths{
			AtomicService: p.AtomicService,
			Requester:     req.Name(),
			Provider:      prov.Name(),
		}
	}
	workers := opts.discoveryWorkers(len(pairs))
	span7.SetAttr("workers", workers)
	wctx, cancelDiscovery := context.WithCancel(ctx7)
	defer cancelDiscovery()
	errs := make([]error, len(pairs))
	discoverOne := func(i int) {
		// A cancelled context (caller gave up, or an earlier pair failed)
		// skips the remaining discoveries.
		if err := wctx.Err(); err != nil {
			errs[i] = err
			return
		}
		sp := &sps[i]
		_, svcSpan := obs.StartSpan(wctx, sp.AtomicService)
		var derr error
		sp.Paths, sp.Stats, derr = g.discover(sp.Requester, sp.Provider, opts)
		svcSpan.SetAttr("paths", sp.Stats.Paths)
		svcSpan.SetAttr("edge_visits", sp.Stats.EdgeVisits)
		svcSpan.SetAttr("nodes_visited", sp.Stats.NodeVisits)
		svcSpan.SetAttr("max_stack", sp.Stats.MaxStack)
		svcSpan.End()
		if derr != nil {
			errs[i] = fmt.Errorf("core: %s: atomic service %q: %w", name, sp.AtomicService, derr)
			cancelDiscovery()
		}
	}
	if workers == 1 {
		// A single-worker pool is just the sequential loop: skip the
		// goroutine/channel machinery whose scheduling overhead is what made
		// single-core "concurrent" discovery measure below 1× in PR 3.
		for i := range pairs {
			discoverOne(i)
		}
	} else {
		var (
			wg    sync.WaitGroup
			tasks = make(chan int)
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range tasks {
					discoverOne(i)
				}
			}()
		}
		for i := range pairs {
			tasks <- i
		}
		close(tasks)
		wg.Wait()
	}
	for i := range sps {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if len(sps[i].Paths) == 0 && !opts.AllowDisconnected {
			return nil, fmt.Errorf("core: %s: atomic service %q: no path between requester %q and provider %q",
				name, sps[i].AtomicService, sps[i].Requester, sps[i].Provider)
		}
		res.Services = append(res.Services, sps[i])
		res.TotalPaths += len(sps[i].Paths)
		res.EdgeVisits += sps[i].Stats.EdgeVisits
		res.Pruned += sps[i].Stats.Pruned
	}
	span7.SetAttr("paths", res.TotalPaths)
	span7.SetAttr("edge_visits", res.EdgeVisits)
	span7.End()

	// Step 8: merge all paths of all atomic services into one object
	// diagram. Storing the discovered paths in the reserved model-space
	// subtree ("Resulting paths are stored separately in the model space for
	// further manipulation", Step 7) is part of the same stage.
	_, span8 := obs.StartSpan(ctx, "step8.merge")
	defer span8.End()
	if err := g.storePaths(name, res.Services); err != nil {
		return nil, err
	}
	if err := g.merge(res, opts); err != nil {
		return nil, err
	}
	span8.SetAttr("nodes", res.Graph.NumNodes())
	span8.SetAttr("links", res.Graph.NumEdges())
	return res, nil
}

// lintGate runs the built-in lint registry over the generator's artifacts.
// In LintFail mode error-severity findings abort the generation with a
// *lint.Error; in LintWarn mode every warning and error is logged through
// obs.Logger and the pipeline continues.
func (g *Generator) lintGate(ctx context.Context, svc *service.Composite, mp *mapping.Mapping, name string, mode LintMode) error {
	_, span := obs.StartSpan(ctx, "lint.preflight")
	defer span.End()
	diagram, _ := g.model.Diagram(g.diagramName)
	rep, err := lint.Default().Run(&lint.Input{
		Model:   g.model,
		Diagram: diagram,
		Graph:   g.graph,
		Service: svc,
		Mapping: mp,
	})
	if err != nil {
		return err
	}
	span.SetAttr("errors", rep.Errors)
	span.SetAttr("warnings", rep.Warnings)
	if mode == LintFail {
		if err := rep.Err(); err != nil {
			return fmt.Errorf("core: %s: pre-flight %w", name, err)
		}
		return nil
	}
	for _, d := range rep.Diagnostics {
		if d.Severity < lint.SeverityWarning {
			continue
		}
		obs.Logger().Warn("lint finding",
			"upsim", name,
			"rule", d.Rule,
			"severity", d.Severity.String(),
			"element", d.Element,
			"message", d.Message)
	}
	return nil
}

// discover runs Step 7 for one pair: ranked discovery when Paths.K > 0 —
// the K cheapest paths under the stereotype cost view, with a bounded work
// envelope instead of an exponential sweep — else full enumeration.
func (g *Generator) discover(req, prov string, opts Options) ([]pathdisc.Path, pathdisc.Stats, error) {
	if opts.Paths.K > 0 {
		return g.compiled.KShortest(req, prov, opts.Paths)
	}
	return g.compiled.AllPaths(req, prov, opts.Paths)
}

// storePaths materialises paths under paths.<name>.<atomic service>.p<i>,
// each entity valued with the paper-style path string.
func (g *Generator) storePaths(name string, services []ServicePaths) error {
	for _, sp := range services {
		parent, err := g.space.EnsureEntity("paths." + name + "." + sp.AtomicService)
		if err != nil {
			return err
		}
		for i, p := range sp.Paths {
			pe, err := g.space.NewEntity(parent, fmt.Sprintf("p%d", i))
			if err != nil {
				return err
			}
			pe.SetValue(p.String())
		}
	}
	return nil
}

// merge builds the UPSIM object diagram and graph from the union of all
// discovered paths. "Multiple occurrences are ignored" — the merge is a set
// union over nodes (and, for MergeTraversed, edges).
func (g *Generator) merge(res *Result, opts Options) error {
	keep := make(map[string]bool)
	edges := make(map[int]bool)
	for _, sp := range res.Services {
		for n := range pathdisc.NodeSet(sp.Paths) {
			keep[n] = true
		}
		for e := range pathdisc.EdgeSet(sp.Paths) {
			edges[e] = true
		}
	}

	src, _ := g.model.Diagram(g.diagramName)
	res.Source = src
	out := g.model.NewObjectDiagram(res.Name)
	for _, inst := range src.Instances() {
		if !keep[inst.Name()] {
			continue
		}
		if _, err := out.AddInstance(inst.Name(), inst.Classifier()); err != nil {
			return err
		}
	}
	// The topology graph was built from src in link order, so edge ID i is
	// src.Links()[i].
	links := src.Links()
	for i, l := range links {
		a, b := l.Ends()
		include := false
		switch opts.Merge {
		case MergeInduced:
			include = keep[a.Name()] && keep[b.Name()]
		case MergeTraversed:
			include = edges[i]
		default:
			return fmt.Errorf("core: unknown merge semantics %v", opts.Merge)
		}
		if !include {
			continue
		}
		if _, err := out.ConnectByName(a.Name(), b.Name(), l.Association()); err != nil {
			return err
		}
	}
	res.UPSIM = out
	res.Graph = topology.FromObjectDiagram(out)
	return nil
}

// ResetDerived unhooks every artifact previous Generate calls grafted onto
// the shared model and model space: output diagrams detach from the model
// (staying valid inside cached Results), and the mapping and paths subtrees
// are deleted, returning their entities to the space's arena free lists. The
// infrastructure import (Step 5) is untouched, so the generator is ready for
// a fresh sequence of generations against the same model — this is what
// makes a Generator reusable through a GeneratorPool without name
// collisions or unbounded model-space growth.
func (g *Generator) ResetDerived() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, d := range g.derived {
		g.model.RemoveDiagram(d.diagram)
		if e, ok := g.space.Lookup(importers.NSMappings + "." + d.mapping); ok {
			// The subtree exists and is not the root; deletion cannot fail.
			_ = g.space.DeleteEntity(e)
		}
		if e, ok := g.space.Lookup("paths." + d.diagram); ok {
			_ = g.space.DeleteEntity(e)
		}
	}
	g.derived = g.derived[:0]
}

// Close releases the generator's model space back to the package pool. The
// generator must not be used afterwards; only pool-managed lifecycles (and
// tests) should call it — an unpooled Generator can simply be dropped.
func (g *Generator) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.space != nil {
		vpm.PutSpace(g.space)
		g.space = nil
	}
}
