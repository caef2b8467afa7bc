package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"upsim/internal/cache"
	"upsim/internal/obs"
	"upsim/internal/pathdisc"
)

func TestWithCacheHitSkipsPipeline(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(16)
	if g.WithCache(c) != g {
		t.Fatal("WithCache must return the receiver for chaining")
	}
	if g.Cache() != c {
		t.Fatal("Cache() does not return the attached cache")
	}

	cold, err := g.Generate(f.svc, f.mp, "cached", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The second identical request must come from the cache: same pointer,
	// hit counted, and the trace carries a "cache" span but no step7 span
	// (discovery did not run again).
	ctx, root := obs.StartSpan(context.Background(), "warm")
	warm, err := g.GenerateContext(ctx, f.svc, f.mp, "cached", Options{})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Error("warm request did not return the shared cached Result")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %s; want 1 hit, 1 miss, 1 entry", s)
	}
	names := map[string]bool{}
	root.Walk(func(sp *obs.Span, _ int) { names[sp.Name()] = true })
	if !names["cache"] {
		t.Errorf("warm trace lacks the cache span: %s", root.Render())
	}
	if names["step7.pathdisc"] {
		t.Errorf("warm trace re-ran discovery: %s", root.Render())
	}

	// A different UPSIM name is a different content address.
	other, err := g.Generate(f.svc, f.mp, "cached-2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if other == cold {
		t.Error("request with different name shared the cached Result")
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("misses = %d, want 2", s.Misses)
	}
}

func TestCacheKeyDerivation(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	base, err := g.CacheKey(f.svc, f.mp, "u", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", base)
	}
	again, err := g.CacheKey(f.svc, f.mp, "u", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Error("identical request derived different keys")
	}
	// Pool sizes tune parallelism only — they must not change the address.
	pooled, err := g.CacheKey(f.svc, f.mp, "u", Options{DiscoveryWorkers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if pooled != base {
		t.Error("worker-pool sizing changed the cache key")
	}
	// Everything that changes the produced Result must change the key.
	variants := map[string]Options{
		"ranked": {Paths: pathdisc.Options{K: 1}},
		"merge":  {Merge: MergeTraversed},
		"depth":  {Paths: pathdisc.Options{MaxDepth: 3}},
		"disc":   {AllowDisconnected: true},
		"lint":   {Lint: LintWarn},
	}
	seen := map[string]string{base: "base"}
	for label, opts := range variants {
		k, err := g.CacheKey(f.svc, f.mp, "u", opts)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("options variant %q collides with %q", label, prev)
		}
		seen[k] = label
	}
	if k, _ := g.CacheKey(f.svc, f.mp, "other-name", Options{}); k == base {
		t.Error("UPSIM name not part of the key")
	}
	mp2 := f.mp.Clone()
	if err := mp2.Remap("fetch", "iso", "srv"); err != nil {
		t.Fatal(err)
	}
	if k, _ := g.CacheKey(f.svc, mp2, "u", Options{}); k == base {
		t.Error("mapping change not part of the key")
	}
	if _, err := g.CacheKey(nil, f.mp, "u", Options{}); err == nil {
		t.Error("nil service must fail")
	}
	if _, err := g.CacheKey(f.svc, nil, "u", Options{}); err == nil {
		t.Error("nil mapping must fail")
	}
}

// TestGeneratorSingleflightStress hammers one cached Generator with 32
// goroutines issuing the identical request and asserts exactly-once compute
// through the singleflight counters: 1 miss, 31 hits-or-shares, one shared
// Result pointer.
func TestGeneratorSingleflightStress(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(16)
	g.WithCache(c)

	const goroutines = 32
	var (
		wg      sync.WaitGroup
		results [goroutines]*Result
		errs    [goroutines]error
	)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = g.Generate(f.svc, f.mp, "stress", Options{})
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("goroutine %d received a different Result instance", i)
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want exactly-once compute", s.Misses)
	}
	if s.Hits+s.Shared != goroutines-1 {
		t.Errorf("hits+shared = %d+%d, want %d", s.Hits, s.Shared, goroutines-1)
	}
	// The pipeline really ran once: a second mapping import would have
	// bumped the sequence number used for the import name.
	if g.mappingSeq != 1 {
		t.Errorf("mappingSeq = %d, want 1 (pipeline must compute exactly once)", g.mappingSeq)
	}
}

// TestConcurrentDistinctRequests exercises the generator mutex: distinct
// cached requests from many goroutines serialise on the pipeline without
// racing on the shared model and space.
func TestConcurrentDistinctRequests(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	g.WithCache(cache.New(64))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := g.Generate(f.svc, f.mp, fmt.Sprintf("distinct-%d", i), Options{})
			if err != nil {
				t.Errorf("generate %d: %v", i, err)
				return
			}
			if res.Name != fmt.Sprintf("distinct-%d", i) {
				t.Errorf("generate %d produced %q", i, res.Name)
			}
		}(i)
	}
	wg.Wait()
	if s := g.Cache().Stats(); s.Misses != 8 {
		t.Errorf("misses = %d, want 8 distinct computations", s.Misses)
	}
}

// TestDiscoveryWorkersDeterministic asserts the concurrency contract of the
// Step 7 loop: whatever the pool size, per-service path sets arrive in
// execution order with identical contents.
func TestDiscoveryWorkersDeterministic(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := g.Generate(f.svc, f.mp, "seq", Options{DiscoveryWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, workers := range []int{2, 4, 16} {
		conc, err := g.Generate(f.svc, f.mp, fmt.Sprintf("conc-%d", i), Options{DiscoveryWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(conc.Services) != len(seq.Services) {
			t.Fatalf("workers=%d: services = %d, want %d", workers, len(conc.Services), len(seq.Services))
		}
		for si := range seq.Services {
			a, b := seq.Services[si], conc.Services[si]
			if a.AtomicService != b.AtomicService {
				t.Errorf("workers=%d: service[%d] = %s, want %s (order lost)", workers, si, b.AtomicService, a.AtomicService)
			}
			if len(a.Paths) != len(b.Paths) {
				t.Fatalf("workers=%d: %s has %d paths, want %d", workers, a.AtomicService, len(b.Paths), len(a.Paths))
			}
			for pi := range a.Paths {
				if a.Paths[pi].String() != b.Paths[pi].String() {
					t.Errorf("workers=%d: %s path[%d] = %s, want %s", workers, a.AtomicService, pi, b.Paths[pi], a.Paths[pi])
				}
			}
		}
		if got, want := conc.NodeNames(), seq.NodeNames(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("workers=%d: nodes = %v, want %v", workers, got, want)
		}
	}
}

func TestConcurrentDiscoveryErrorDeterministic(t *testing.T) {
	f := buildFixture(t)
	// Remap the *first* atomic service onto the isolated client so that the
	// sequential loop's error (fetch has no path) is the one every pool
	// size must report, even though deliver errors too.
	mp := f.mp.Clone()
	if err := mp.Remap("fetch", "iso", "srv"); err != nil {
		t.Fatal(err)
	}
	if err := mp.Remap("deliver", "srv", "iso"); err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	for i, workers := range []int{1, 2, 8} {
		_, err := g.Generate(f.svc, mp, fmt.Sprintf("fail-%d", i), Options{DiscoveryWorkers: workers})
		if err == nil {
			t.Fatalf("workers=%d: disconnected pair did not fail", workers)
		}
		if !strings.Contains(err.Error(), `atomic service "fetch"`) {
			t.Errorf("workers=%d: error = %v, want the first pair's (fetch) failure", workers, err)
		}
	}
}

func TestGenerateContextCancelled(t *testing.T) {
	f := buildFixture(t)
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.GenerateContext(ctx, f.svc, f.mp, "cancelled", Options{}); err == nil {
		t.Error("generation under a cancelled context must fail")
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	f := buildFixture(t)
	mp := f.mp.Clone()
	if err := mp.Remap("fetch", "iso", "srv"); err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(f.model, "infrastructure")
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(16)
	g.WithCache(c)
	for i := 0; i < 2; i++ {
		if _, err := g.Generate(f.svc, mp, "broken", Options{}); err == nil {
			t.Fatalf("attempt %d: disconnected pair did not fail", i)
		}
	}
	s := c.Stats()
	if s.Misses != 2 || s.Entries != 0 {
		t.Errorf("stats = %s; errors must not be cached (want 2 misses, 0 entries)", s)
	}
	// The same generator still serves good requests afterwards.
	if _, err := g.Generate(f.svc, f.mp, "good", Options{}); err != nil {
		t.Fatal(err)
	}
}
