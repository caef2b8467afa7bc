package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"upsim/internal/cache"
	"upsim/internal/mapping"
	"upsim/internal/service"
	"upsim/internal/uml"
)

// WithCache attaches a content-addressed result cache (see internal/cache)
// to the generator and returns it for chaining. Subsequent Generate calls
// derive a CacheKey from their inputs and serve repeated identical requests
// from the cache without re-running Steps 6–8; concurrent identical
// requests compute once and share the result (singleflight). The model's
// canonical digest is taken now, so the model must not be mutated
// externally after this call (the generator's own UPSIM output diagrams are
// excluded by construction: the digest is fixed before any is added).
//
// A cached *Result is shared verbatim between callers and must be treated
// as immutable — which every pipeline consumer already does, because a
// Result is never written after Step 8's merge returns (DESIGN.md §8).
func (g *Generator) WithCache(c *cache.Cache) *Generator {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cache = c
	if c != nil && g.modelDigest == "" && g.digestErr == nil {
		g.modelDigest, g.digestErr = modelDigest(g.model)
	}
	return g
}

// Cache returns the cache attached with WithCache, or nil.
func (g *Generator) Cache() *cache.Cache {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cache
}

// modelDigest hashes the canonical XMI serialisation of the model.
func modelDigest(m *uml.Model) (string, error) {
	h := sha256.New()
	if err := uml.Encode(h, m); err != nil {
		return "", fmt.Errorf("core: cache key: encoding model: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CacheKey derives the content address of one generation request: a stable
// SHA-256 over the canonically-encoded model XMI (digested once, at
// WithCache time), the infrastructure diagram name, the composite service's
// name and stage structure, the Figure-3 encoding of the mapping, the UPSIM
// name and every Options field that can change the output. Two requests
// collide exactly when Steps 6–8 would produce an identical Result, which
// is what makes a cached Result safe to share.
func (g *Generator) CacheKey(svc *service.Composite, mp *mapping.Mapping, name string, opts Options) (string, error) {
	if svc == nil {
		return "", fmt.Errorf("core: cache key: nil service")
	}
	if mp == nil {
		return "", fmt.Errorf("core: cache key: nil mapping")
	}
	g.mu.Lock()
	digest, err := g.modelDigest, g.digestErr
	if digest == "" && err == nil {
		// CacheKey may be called before WithCache (tests, tooling).
		g.modelDigest, g.digestErr = modelDigest(g.model)
		digest, err = g.modelDigest, g.digestErr
	}
	g.mu.Unlock()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "model=%s\ndiagram=%s\nname=%s\n", digest, g.diagramName, name)
	fmt.Fprintf(h, "service=%s stages=%v\n", svc.Name(), svc.Stages())
	if err := mp.Encode(h); err != nil {
		return "", fmt.Errorf("core: cache key: encoding mapping: %w", err)
	}
	// DiscoveryWorkers is deliberately excluded: it tunes parallelism only,
	// never the produced Result (the discovery loop preserves execution
	// order), so requests differing only in pool size share one entry.
	// K, CostMetric and MaxWork all change the produced path set (ranked
	// top-k under a metric vs full enumeration; the work budget decides
	// whether the request errors), so they key the cache like the other
	// path options.
	fmt.Fprintf(h, "\nopts=%s paths={d=%d p=%d c=%t k=%d cost=%s work=%d} disc=%t lint=%s\n",
		opts.Merge,
		opts.Paths.MaxDepth, opts.Paths.MaxPaths, opts.Paths.CollapseParallel,
		opts.Paths.K, opts.Paths.CostMetric, opts.Paths.MaxWork,
		opts.AllowDisconnected, opts.Lint)
	return hex.EncodeToString(h.Sum(nil)), nil
}
