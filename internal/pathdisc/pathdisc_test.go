package pathdisc

import (
	"fmt"
	"strings"
	"testing"

	"upsim/internal/testutil"
	"upsim/internal/topology"
)

// kernelPaths enumerates through a fresh compile of g — the production
// Step 7 path, for tests that build their graph inline.
func kernelPaths(g *topology.Graph, src, dst string, opts Options) ([]Path, Stats, error) {
	return Compile(g).AllPaths(src, dst, opts)
}

// diamond builds the classic redundancy fixture:
//
//	  a
//	 / \
//	b   c
//	 \ /
//	  d
func diamond(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.New()
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(n, "N"); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if _, err := g.AddEdge(e[0], e[1], ""); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAllPathsDiamond(t *testing.T) {
	g := diamond(t)
	paths, stats, err := kernelPaths(g, "a", "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	want := map[string]bool{"a—b—d": true, "a—c—d": true}
	for _, p := range paths {
		if !want[p.String()] {
			t.Errorf("unexpected path %s", p)
		}
	}
	if stats.Paths != 2 || stats.EdgeVisits < 4 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.MaxStack < 2 {
		t.Errorf("MaxStack = %d", stats.MaxStack)
	}
}

func TestAllPathsCycleSafety(t *testing.T) {
	// Ring of 5: exactly two simple paths between any two nodes.
	g, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	paths, _, err := kernelPaths(g, "n0", "n2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("ring paths = %v", paths)
	}
}

func TestAllPathsParallelEdges(t *testing.T) {
	g := topology.New()
	_ = g.AddNode("a", "")
	_ = g.AddNode("b", "")
	_, _ = g.AddEdge("a", "b", "l1")
	_, _ = g.AddEdge("a", "b", "l2")
	paths, _, err := kernelPaths(g, "a", "b", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("parallel-edge paths = %d, want 2 (distinct edges)", len(paths))
	}
	if paths[0].Edges[0] == paths[1].Edges[0] {
		t.Error("paths must use distinct edges")
	}
	collapsed, _, err := kernelPaths(g, "a", "b", Options{CollapseParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(collapsed) != 1 {
		t.Fatalf("collapsed paths = %d, want 1", len(collapsed))
	}
}

func TestAllPathsDepthBound(t *testing.T) {
	g := diamond(t)
	// Extend with a longer detour a-e-f-d.
	for _, n := range []string{"e", "f"} {
		_ = g.AddNode(n, "")
	}
	_, _ = g.AddEdge("a", "e", "")
	_, _ = g.AddEdge("e", "f", "")
	_, _ = g.AddEdge("f", "d", "")
	all, _, _ := kernelPaths(g, "a", "d", Options{})
	if len(all) != 3 {
		t.Fatalf("unbounded paths = %d, want 3", len(all))
	}
	bounded, _, _ := kernelPaths(g, "a", "d", Options{MaxDepth: 2})
	if len(bounded) != 2 {
		t.Fatalf("depth-2 paths = %d, want 2", len(bounded))
	}
	for _, p := range bounded {
		if p.Len() > 2 {
			t.Errorf("path %s exceeds depth bound", p)
		}
	}
}

func TestAllPathsMaxPaths(t *testing.T) {
	g, _ := topology.Mesh(7)
	paths, stats, err := kernelPaths(g, "n0", "n6", Options{MaxPaths: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 10 || !stats.Truncated {
		t.Errorf("len = %d, truncated = %v", len(paths), stats.Truncated)
	}
	all, stats2, _ := kernelPaths(g, "n0", "n6", Options{})
	if stats2.Truncated {
		t.Error("unbounded run must not be truncated")
	}
	// Mesh of 7: sum over k of P(5,k) simple paths between two fixed nodes:
	// 1 + 5 + 20 + 60 + 120 + 120 = 326.
	if len(all) != 326 {
		t.Errorf("mesh(7) paths = %d, want 326", len(all))
	}
	// Truncated run must be a prefix of the full run.
	for i, p := range paths {
		if p.String() != all[i].String() {
			t.Fatalf("truncated[%d] = %s, full = %s", i, p, all[i])
		}
	}
}

func TestEndpointValidation(t *testing.T) {
	g := diamond(t)
	c := Compile(g)
	for _, pair := range [][2]string{{"ghost", "d"}, {"a", "ghost"}, {"a", "a"}} {
		if _, _, err := c.AllPaths(pair[0], pair[1], Options{}); err == nil {
			t.Errorf("AllPaths(%s, %s) should fail", pair[0], pair[1])
		}
		if _, _, err := c.CountPaths(pair[0], pair[1], Options{}); err == nil {
			t.Errorf("CountPaths(%s, %s) should fail", pair[0], pair[1])
		}
		if _, _, err := c.KShortest(pair[0], pair[1], Options{K: 1}); err == nil {
			t.Errorf("KShortest(%s, %s) should fail", pair[0], pair[1])
		}
	}
}

func TestDisconnectedPair(t *testing.T) {
	g := topology.New()
	_ = g.AddNode("a", "")
	_ = g.AddNode("b", "")
	c := Compile(g)
	paths, stats, err := c.AllPaths("a", "b", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 || stats.Paths != 0 {
		t.Error("disconnected pair must yield zero paths without error")
	}
	if n, _, err := c.CountPaths("a", "b", Options{}); err != nil || n != 0 {
		t.Errorf("count on disconnected pair = %d, %v", n, err)
	}
	// Ranked discovery answers "the best you can get": nothing, no error.
	if ps, _, err := c.KShortest("a", "b", Options{K: 1}); err != nil || len(ps) != 0 {
		t.Errorf("K=1 on disconnected pair = %v, %v", ps, err)
	}
}

// shortestPath is the redundancy ablation's single path: ranked discovery
// with K = 1 under the hop metric.
func shortestPath(t *testing.T, g *topology.Graph, src, dst string) Path {
	t.Helper()
	ps, _, err := Compile(g).KShortest(src, dst, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Fatalf("K=1 %s→%s returned %d paths", src, dst, len(ps))
	}
	return ps[0]
}

func TestShortestPath(t *testing.T) {
	g := diamond(t)
	p := shortestPath(t, g, "a", "d")
	if p.Len() != 2 || p.Nodes[0] != "a" || p.Nodes[2] != "d" {
		t.Errorf("shortest = %s", p)
	}
	// Chain: the unique path.
	c, _ := topology.Chain(6)
	p = shortestPath(t, c, "n0", "n5")
	if p.String() != "n0—n1—n2—n3—n4—n5" {
		t.Errorf("chain shortest = %s", p)
	}
	if len(p.Edges) != len(p.Nodes)-1 {
		t.Error("edge/node count mismatch")
	}
}

// TestShortestPathMatchesOracleMinimum is the property behind the
// redundancy ablation: over random multigraphs, the K=1 hop-cost path is
// as short as the shortest path the oracle enumerates, and exists exactly
// when the oracle finds any path.
func TestShortestPathMatchesOracleMinimum(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		n := 4 + int(seed)%10
		g := randomMultigraph(t, seed, n, n/2+int(seed)%6)
		src, dst := "n0", fmt.Sprintf("n%d", n-1)
		all, _, err := AllPaths(g, src, dst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Compile(g).KShortest(src, dst, Options{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(all) == 0 {
			if len(got) != 0 {
				t.Fatalf("seed %d: oracle finds no path, K=1 returned %s", seed, got[0])
			}
			continue
		}
		minLen := all[0].Len()
		for _, p := range all[1:] {
			minLen = min(minLen, p.Len())
		}
		if len(got) != 1 || got[0].Len() != minLen {
			t.Fatalf("seed %d: K=1 = %v, want one path of %d hops", seed, got, minLen)
		}
	}
}

// TestVariantsAgree checks the compiled kernel against the oracle on the
// named topology shapes the scalability study uses: identical paths in
// identical order.
func TestVariantsAgree(t *testing.T) {
	graphs := map[string]*topology.Graph{}
	if g, err := topology.Mesh(6); err == nil {
		graphs["mesh6"] = g
	}
	if g, err := topology.Ring(8); err == nil {
		graphs["ring8"] = g
	}
	if g, err := topology.RandomConnected(16, 0.06, 3); err == nil {
		graphs["rand16"] = g
	}
	if g, err := topology.Campus(topology.CampusParams{
		EdgeSwitches: 4, ClientsPerEdge: 2, ServersPerSwitch: 2, RedundantCore: true,
	}); err == nil {
		graphs["campus"] = g
	}
	for name, g := range graphs {
		names := g.NodeNames()
		src, dst := names[0], names[len(names)-1]
		want, _, err := AllPaths(g, src, dst, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _, err := kernelPaths(g, src, dst, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameSequence(t, name, want, got)
	}
}

func TestVariantsAgreeWithOptions(t *testing.T) {
	g, err := topology.RandomConnected(18, 0.15, 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxDepth: 6, CollapseParallel: true}
	want, _, _ := AllPaths(g, "n0", "n17", opts)
	got, _, err := kernelPaths(g, "n0", "n17", opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSequence(t, "rand18 depth6 collapsed", want, got)
}

func TestPathInvariants(t *testing.T) {
	g, err := topology.RandomConnected(20, 0.06, 5)
	if err != nil {
		t.Fatal(err)
	}
	paths, _, err := kernelPaths(g, "n0", "n19", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if p.Nodes[0] != "n0" || p.Nodes[len(p.Nodes)-1] != "n19" {
			t.Fatalf("path endpoints wrong: %s", p)
		}
		if len(p.Edges) != len(p.Nodes)-1 {
			t.Fatalf("edge count wrong: %s", p)
		}
		seen := map[string]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("node repeated in simple path: %s", p)
			}
			seen[n] = true
		}
		for i, id := range p.Edges {
			e, ok := g.Edge(id)
			if !ok {
				t.Fatalf("path references unknown edge %d", id)
			}
			if e.Other(p.Nodes[i]) != p.Nodes[i+1] {
				t.Fatalf("edge %d does not join %s and %s", id, p.Nodes[i], p.Nodes[i+1])
			}
		}
	}
}

func TestNodeAndEdgeSets(t *testing.T) {
	g := diamond(t)
	paths, _, _ := kernelPaths(g, "a", "d", Options{})
	ns := NodeSet(paths)
	if len(ns) != 4 {
		t.Errorf("NodeSet = %v", ns)
	}
	es := EdgeSet(paths)
	if len(es) != 4 {
		t.Errorf("EdgeSet = %v", es)
	}
	if len(NodeSet(nil)) != 0 || len(EdgeSet(nil)) != 0 {
		t.Error("empty path list must give empty sets")
	}
}

func TestSortAndEqual(t *testing.T) {
	a := Path{Nodes: []string{"a", "b"}, Edges: []int{0}}
	b := Path{Nodes: []string{"a", "c", "b"}, Edges: []int{1, 2}}
	c := Path{Nodes: []string{"a", "b"}, Edges: []int{3}} // parallel edge variant
	ps := []Path{b, c, a}
	Sort(ps)
	if ps[0].Len() != 1 || ps[2].Len() != 2 {
		t.Errorf("sort by length failed: %v", ps)
	}
	if !Equal([]Path{a, b}, []Path{b, a}) {
		t.Error("Equal must be order independent")
	}
	if Equal([]Path{a}, []Path{c}) {
		t.Error("paths over different edges are different")
	}
	if Equal([]Path{a}, []Path{a, b}) {
		t.Error("different lengths are unequal")
	}
}

func TestPathString(t *testing.T) {
	p := Path{Nodes: []string{"t1", "e1", "d1", "c1", "d4", "printS"}, Edges: []int{0, 1, 2, 3, 4}}
	if got := p.String(); got != "t1—e1—d1—c1—d4—printS" {
		t.Errorf("String = %q", got)
	}
	if !strings.Contains(p.equalKey(), "|2|") {
		t.Error("equalKey must embed edge IDs")
	}
}

// TestCountPathsAgreesWithAllPaths pins Compiled.CountPaths to the oracle's
// path count over random multigraphs and the full option matrix, including
// MaxPaths truncation and the hard limit.
func TestCountPathsAgreesWithAllPaths(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		n := 6 + int(seed)%9
		g := randomMultigraph(t, seed, n, n/2+int(seed)%5)
		c := Compile(g)
		src, dst := "n0", fmt.Sprintf("n%d", n-1)
		for _, opts := range optionsMatrix() {
			label := fmt.Sprintf("seed=%d n=%d opts=%+v", seed, n, opts)
			want, wantStats, err := AllPaths(g, src, dst, opts)
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			count, stats, err := c.CountPaths(src, dst, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if count != len(want) || stats.Paths != count {
				t.Fatalf("%s: CountPaths = %d (stats %d), oracle = %d", label, count, stats.Paths, len(want))
			}
			if stats.Truncated != wantStats.Truncated {
				t.Fatalf("%s: Truncated = %v, oracle = %v", label, stats.Truncated, wantStats.Truncated)
			}
			// Counting walks exactly the search AllPaths walks.
			_, enumStats, _ := c.AllPaths(src, dst, opts)
			if stats != enumStats {
				t.Fatalf("%s: count stats %+v, enumeration stats %+v", label, stats, enumStats)
			}
			if len(want) == 0 {
				continue
			}
			// One below the true count trips the hard limit, the count
			// itself passes.
			hard := opts
			hard.HardMaxPaths = len(want) - 1
			if opts.MaxPaths > 0 || hard.HardMaxPaths == 0 {
				continue // truncation, or a limit of 0 that disables the check
			}
			if _, _, err := c.CountPaths(src, dst, hard); err == nil {
				t.Fatalf("%s: hard limit %d passed", label, hard.HardMaxPaths)
			} else if le, ok := AsLimitError(err); !ok || le.Limit != hard.HardMaxPaths {
				t.Fatalf("%s: error %v is not the hard-limit LimitError", label, err)
			}
			hard.HardMaxPaths = len(want)
			if got, _, err := c.CountPaths(src, dst, hard); err != nil || got != len(want) {
				t.Fatalf("%s: at the limit: count %d, %v", label, got, err)
			}
		}
	}
}

func TestCountPathsValidation(t *testing.T) {
	c := Compile(diamond(t))
	if _, _, err := c.CountPaths("ghost", "d", Options{}); err == nil {
		t.Error("unknown endpoint should fail")
	}
	if _, _, err := c.CountPaths("a", "a", Options{}); err == nil {
		t.Error("identical endpoints should fail")
	}
	n, _, err := c.CountPaths("a", "d", Options{})
	if err != nil || n != 2 {
		t.Errorf("diamond count = %d, %v", n, err)
	}
}

// TestCountPathsAllocs shows that counting stores no paths: once the
// scratch pool is warm, counting the 1957 paths of an 8-node mesh allocates
// nothing (the average stays below one object per run even if a GC empties
// the pool mid-measurement), while enumerating them allocates the path
// arenas.
func TestCountPathsAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g, err := topology.Mesh(8)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	if n, _, err := c.CountPaths("n0", "n7", Options{}); err != nil || n != 1957 {
		t.Fatalf("warm-up count = %d, %v", n, err)
	}
	count := testing.AllocsPerRun(50, func() {
		if _, _, err := c.CountPaths("n0", "n7", Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if count >= 1 {
		t.Errorf("CountPaths allocates %.1f objects/op, want 0 (no path storage)", count)
	}
	enum := testing.AllocsPerRun(10, func() {
		if _, _, err := c.AllPaths("n0", "n7", Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if enum < 3 {
		t.Errorf("AllPaths allocates %.1f objects/op; the fixture no longer exercises path storage", enum)
	}
}

func TestNodeVisitsAndMetrics(t *testing.T) {
	c := Compile(diamond(t))
	paths, stats, err := c.AllPaths("a", "d", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v", paths)
	}
	if stats.NodeVisits != stats.EdgeVisits+1 {
		t.Errorf("NodeVisits = %d, EdgeVisits = %d", stats.NodeVisits, stats.EdgeVisits)
	}
	if _, s, err := c.CountPaths("a", "d", Options{}); err != nil || s.NodeVisits != s.EdgeVisits+1 {
		t.Errorf("count NodeVisits = %d (edges %d), err = %v", s.NodeVisits, s.EdgeVisits, err)
	}
	// Every search is observed into the per-mode histograms of the default
	// registry.
	for mode, run := range map[string]func() error{
		"csr-dfs":   func() error { _, _, err := c.AllPaths("a", "d", Options{}); return err },
		"csr-count": func() error { _, _, err := c.CountPaths("a", "d", Options{}); return err },
	} {
		before := mNodesVisited.With(mode).Count()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if after := mNodesVisited.With(mode).Count(); after != before+1 {
			t.Errorf("%s: nodes_visited observations %d -> %d, want +1", mode, before, after)
		}
	}
	before := mTruncated.With("csr-dfs").Value()
	if _, s, err := c.AllPaths("a", "d", Options{MaxPaths: 1}); err != nil || !s.Truncated {
		t.Fatalf("truncation fixture failed: %+v, %v", s, err)
	}
	if mTruncated.With("csr-dfs").Value() != before+1 {
		t.Error("truncated counter not incremented")
	}
}

// BenchmarkAllPathsInstrumented measures the instrumented kernel on a dense
// fixture; the metrics cost one histogram observation per enumeration,
// amortised over the whole search.
func BenchmarkAllPathsInstrumented(b *testing.B) {
	g, err := topology.Mesh(8)
	if err != nil {
		b.Fatal(err)
	}
	c := Compile(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.AllPaths("n0", "n7", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHardMaxPaths pins the hard-limit contract of the kernel and the
// oracle alike: the diamond holds two simple paths, so a hard limit of 1
// must abort with a *LimitError while a limit of 2 passes untouched.
func TestHardMaxPaths(t *testing.T) {
	g := diamond(t)
	c := Compile(g)
	variants := map[string]func(Options) ([]Path, Stats, error){
		"recursive": func(o Options) ([]Path, Stats, error) { return AllPaths(g, "a", "d", o) },
		"csr":       func(o Options) ([]Path, Stats, error) { return c.AllPaths("a", "d", o) },
	}
	for name, run := range variants {
		t.Run(name, func(t *testing.T) {
			paths, _, err := run(Options{HardMaxPaths: 1})
			if err == nil {
				t.Fatalf("hard limit 1 passed with %d paths", len(paths))
			}
			le, ok := AsLimitError(err)
			if !ok {
				t.Fatalf("error is not a LimitError: %v", err)
			}
			if le.Src != "a" || le.Dst != "d" || le.Limit != 1 {
				t.Fatalf("LimitError = %+v", le)
			}
			if paths, _, err = run(Options{HardMaxPaths: 2}); err != nil || len(paths) != 2 {
				t.Fatalf("hard limit 2: paths=%d err=%v", len(paths), err)
			}
			// MaxPaths below the hard limit truncates instead of erroring.
			paths, stats, err := run(Options{HardMaxPaths: 1, MaxPaths: 1})
			if err != nil || len(paths) != 1 || !stats.Truncated {
				t.Fatalf("MaxPaths precedence: paths=%d truncated=%v err=%v", len(paths), stats.Truncated, err)
			}
		})
	}
	// Counting honours the limit too.
	if _, _, err := c.CountPaths("a", "d", Options{HardMaxPaths: 1}); err == nil {
		t.Fatal("CountPaths ignored the hard limit")
	}
}
