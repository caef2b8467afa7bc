package pathdisc

import (
	"fmt"
	"math/rand"
	"testing"

	"upsim/internal/topology"
)

// randomMultigraph builds a reproducible random graph exercising everything
// the kernel must survive: cycles, parallel edges, self-loops and
// disconnected islands. Node names are n0..n<n-1>.
func randomMultigraph(t testing.TB, seed int64, n int, extraEdges int) *topology.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := topology.New()
	for i := 0; i < n; i++ {
		if err := g.AddNode(fmt.Sprintf("n%d", i), "N"); err != nil {
			t.Fatal(err)
		}
	}
	// A random spanning backbone over a prefix of the nodes (the suffix stays
	// disconnected with probability ~1/4 per node).
	for i := 1; i < n; i++ {
		if rng.Intn(4) == 0 && i > n/2 {
			continue
		}
		if _, err := g.AddEdge(fmt.Sprintf("n%d", rng.Intn(i)), fmt.Sprintf("n%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extraEdges; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(8) {
		case 0: // self-loop
			b = a
		case 1, 2: // parallel duplicate of an existing edge, when one exists
			if es := g.Edges(); len(es) > 0 {
				e := es[rng.Intn(len(es))]
				var err error
				if _, err = g.AddEdge(e.A, e.B, ""); err != nil {
					t.Fatal(err)
				}
				continue
			}
		}
		if _, err := g.AddEdge(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b), ""); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// optionsMatrix is every Options combination the equality property covers.
func optionsMatrix() []Options {
	return []Options{
		{},
		{MaxDepth: 1},
		{MaxDepth: 3},
		{MaxDepth: 6},
		{MaxPaths: 1},
		{MaxPaths: 7},
		{CollapseParallel: true},
		{MaxDepth: 4, CollapseParallel: true},
		{MaxDepth: 5, MaxPaths: 9},
		{MaxPaths: 3, CollapseParallel: true},
		{MaxDepth: 4, MaxPaths: 5, CollapseParallel: true},
	}
}

// assertSameSequence fails unless both slices hold identical paths (nodes
// and edge IDs) in identical order.
func assertSameSequence(t *testing.T, label string, want, got []Path) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d paths, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].equalKey() != got[i].equalKey() {
			t.Fatalf("%s: path %d = %s (edges %v), want %s (edges %v)",
				label, i, got[i], got[i].Edges, want[i], want[i].Edges)
		}
	}
}

// TestCSRVariantsMatchLegacyProperty is the equality property of the
// compiled kernel: across randomized multigraphs (parallel edges, self-loops,
// disconnected islands) and the full Options matrix, Compiled.AllPaths
// returns exactly the paths of the legacy recursive DFS (the oracle in
// oracle_test.go), in the identical order.
func TestCSRVariantsMatchLegacyProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		n := 6 + int(seed)%9
		g := randomMultigraph(t, seed, n, n/2+int(seed)%5)
		c := Compile(g)
		src, dst := "n0", fmt.Sprintf("n%d", n-1)
		for _, opts := range optionsMatrix() {
			label := fmt.Sprintf("seed=%d n=%d opts=%+v", seed, n, opts)
			want, wantStats, err := AllPaths(g, src, dst, opts)
			if err != nil {
				t.Fatalf("%s: legacy: %v", label, err)
			}
			rec, recStats, err := c.AllPaths(src, dst, opts)
			if err != nil {
				t.Fatalf("%s: csr: %v", label, err)
			}
			assertSameSequence(t, label+" csr-dfs", want, rec)
			// Pruning may only reduce effort, never change results.
			if recStats.EdgeVisits > wantStats.EdgeVisits {
				t.Fatalf("%s: csr EdgeVisits %d > legacy %d", label, recStats.EdgeVisits, wantStats.EdgeVisits)
			}
			if recStats.Truncated != wantStats.Truncated {
				t.Fatalf("%s: csr Truncated = %v, legacy = %v", label, recStats.Truncated, wantStats.Truncated)
			}
			if recStats.NodeVisits != recStats.EdgeVisits+1 {
				t.Fatalf("%s: csr NodeVisits = %d, EdgeVisits = %d", label, recStats.NodeVisits, recStats.EdgeVisits)
			}
		}
	}
}

// FuzzCSRAgreesWithLegacy drives the same equality property from fuzzed
// inputs: the graph shape, the endpoints and every Options field come from
// the fuzzer. Run with `go test -fuzz=FuzzCSRAgreesWithLegacy` to explore;
// the seed corpus keeps it as a fast regression property under plain
// `go test`.
func FuzzCSRAgreesWithLegacy(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(4), uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(12), uint8(9), uint8(4), uint8(3), true)
	f.Add(int64(42), uint8(5), uint8(7), uint8(2), uint8(1), false)
	f.Add(int64(99), uint8(14), uint8(2), uint8(0), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, extraRaw, maxDepth, maxPaths uint8, collapse bool) {
		n := 2 + int(nRaw)%13       // 2..14 nodes
		extra := int(extraRaw) % 12 // bounded density keeps enumeration small
		g := randomMultigraph(t, seed, n, extra)
		c := Compile(g)
		opts := Options{
			MaxDepth:         int(maxDepth) % 8,
			MaxPaths:         int(maxPaths) % 10,
			CollapseParallel: collapse,
		}
		src, dst := "n0", fmt.Sprintf("n%d", n-1)
		want, _, err := AllPaths(g, src, dst, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.AllPaths(src, dst, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSequence(t, "csr-dfs", want, got)
	})
}

func TestCompileShape(t *testing.T) {
	g, err := topology.Mesh(6)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	if c.NumNodes() != 6 || c.NumEdges() != 15 {
		t.Fatalf("compiled shape = %d nodes, %d edges", c.NumNodes(), c.NumEdges())
	}
	if c.MaxDegree() != 5 {
		t.Errorf("MaxDegree = %d, want 5", c.MaxDegree())
	}
	// No parallel edges: the collapsed view shares the full arrays.
	if &c.colNode[0] != &c.adjNode[0] {
		t.Error("collapsed CSR should share the full arrays without parallel edges")
	}
}

func TestCompileCollapsedView(t *testing.T) {
	g := topology.New()
	for _, n := range []string{"a", "b", "c"} {
		_ = g.AddNode(n, "")
	}
	_, _ = g.AddEdge("a", "b", "l1")
	_, _ = g.AddEdge("a", "b", "l2") // parallel
	_, _ = g.AddEdge("b", "c", "")
	c := Compile(g)
	paths, _, err := c.AllPaths("a", "c", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("full view paths = %d, want 2 (parallel edges distinct)", len(paths))
	}
	collapsed, _, err := c.AllPaths("a", "c", Options{CollapseParallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(collapsed) != 1 {
		t.Fatalf("collapsed paths = %d, want 1", len(collapsed))
	}
	if collapsed[0].Edges[0] != 0 {
		t.Errorf("collapsed path must keep the first parallel edge, got %d", collapsed[0].Edges[0])
	}
}

func TestCSRValidation(t *testing.T) {
	g, _ := topology.Ring(4)
	c := Compile(g)
	if _, _, err := c.AllPaths("ghost", "n1", Options{}); err == nil {
		t.Error("unknown requester should fail")
	}
	if _, _, err := c.CountPaths("n0", "ghost", Options{}); err == nil {
		t.Error("unknown provider should fail")
	}
	if _, _, err := c.AllPaths("n0", "n0", Options{}); err == nil {
		t.Error("identical endpoints should fail")
	}
	// Error messages match the oracle's word for word.
	for _, pair := range [][2]string{{"ghost", "n1"}, {"n0", "ghost"}, {"n0", "n0"}} {
		_, _, want := AllPaths(g, pair[0], pair[1], Options{})
		_, _, got := c.AllPaths(pair[0], pair[1], Options{})
		if want == nil || got == nil || want.Error() != got.Error() {
			t.Errorf("%v: kernel error %v, oracle error %v", pair, got, want)
		}
	}
}

func TestCSRDisconnectedPairSkipsSearch(t *testing.T) {
	g := topology.New()
	_ = g.AddNode("a", "")
	_ = g.AddNode("b", "")
	_ = g.AddNode("c", "")
	_, _ = g.AddEdge("a", "b", "")
	c := Compile(g)
	paths, stats, err := c.AllPaths("a", "c", Options{})
	if err != nil || len(paths) != 0 {
		t.Fatalf("disconnected pair: paths=%v err=%v", paths, err)
	}
	if stats.EdgeVisits != 0 {
		t.Errorf("reachability pruning should skip the whole search, EdgeVisits = %d", stats.EdgeVisits)
	}
	n, stats, err := c.CountPaths("a", "c", Options{})
	if err != nil || n != 0 || stats.EdgeVisits != 0 {
		t.Errorf("disconnected count: n=%d EdgeVisits=%d err=%v", n, stats.EdgeVisits, err)
	}
}

// TestCSRPruningSkipsDeadEnds pins the tentpole's pruning claim. In an
// undirected connected graph every node can reach the provider, so the
// reverse-BFS distances prune through the depth budget: any expansion whose
// remaining distance to the provider exceeds the budget is cut before the
// search enters it, while the legacy DFS walks into the arm and only stops
// at the depth limit.
func TestCSRPruningSkipsDeadEnds(t *testing.T) {
	g := topology.New()
	// a—b—dst plus a 30-node chain dangling off b; with MaxDepth 2 nothing
	// down that chain can be part of a reportable path.
	for _, n := range []string{"a", "b", "dst"} {
		_ = g.AddNode(n, "")
	}
	_, _ = g.AddEdge("a", "b", "")
	_, _ = g.AddEdge("b", "dst", "")
	prev := "b"
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("dead%d", i)
		_ = g.AddNode(name, "")
		_, _ = g.AddEdge(prev, name, "")
		prev = name
	}
	opts := Options{MaxDepth: 2}
	_, legacyStats, err := AllPaths(g, "a", "dst", opts)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	paths, csrStats, err := c.AllPaths("a", "dst", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	if legacyStats.EdgeVisits <= csrStats.EdgeVisits {
		t.Fatalf("legacy should enter the dead arm: legacy EdgeVisits = %d, csr = %d",
			legacyStats.EdgeVisits, csrStats.EdgeVisits)
	}
	if csrStats.EdgeVisits != 2 {
		t.Errorf("compiled kernel EdgeVisits = %d, want 2 (a→b, b→dst)", csrStats.EdgeVisits)
	}
	if csrStats.Pruned == 0 {
		t.Error("Stats.Pruned should count the skipped dead-arm expansion")
	}
	// Depth-budget pruning: with MaxDepth equal to the shortest detour-free
	// route, detours longer than the remaining budget are cut before being
	// walked.
	g2, err := topology.Ring(12)
	if err != nil {
		t.Fatal(err)
	}
	c2 := Compile(g2)
	_, tight, err := c2.AllPaths("n0", "n1", Options{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Pruned == 0 {
		t.Error("depth-budget pruning should skip the 11-hop detour")
	}
	if tight.EdgeVisits != 1 {
		t.Errorf("tight budget EdgeVisits = %d, want 1", tight.EdgeVisits)
	}
}

// TestCSRScratchReuse runs many enumerations through one kernel to verify
// pooled scratch stays clean between uses (a stale visited bit would drop
// paths; a stale path buffer would corrupt them).
func TestCSRScratchReuse(t *testing.T) {
	g, err := topology.Mesh(6)
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(g)
	want, _, _ := AllPaths(g, "n0", "n5", Options{})
	for i := 0; i < 50; i++ {
		got, _, err := c.AllPaths("n0", "n5", Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameSequence(t, fmt.Sprintf("round %d", i), want, got)
	}
	// Interleave different endpoint pairs and search modes.
	for i := 0; i < 20; i++ {
		if _, _, err := c.CountPaths("n1", "n4", Options{MaxDepth: 3}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.KShortest("n2", "n3", Options{K: 3}); err != nil {
			t.Fatal(err)
		}
		got, _, err := c.AllPaths("n0", "n5", Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameSequence(t, fmt.Sprintf("interleaved %d", i), want, got)
	}
}

// TestEqualKeyAllocs is the AllocsPerRun guard for the strconv-based
// equalKey: one buffer plus its string conversion, nothing from fmt.
func TestEqualKeyAllocs(t *testing.T) {
	p := Path{
		Nodes: []string{"t1", "e1", "d1", "c1", "d4", "printS"},
		Edges: []int{0, 11, 222, 3333, 44444},
	}
	allocs := testing.AllocsPerRun(200, func() {
		if p.equalKey() == "" {
			t.Fatal("empty key")
		}
	})
	if allocs > 2 {
		t.Errorf("equalKey allocates %.1f objects/op, want <= 2 (buffer + string)", allocs)
	}
	if got, want := p.equalKey(), "t1|0|e1|11|d1|222|c1|3333|d4|44444|printS"; got != want {
		t.Errorf("equalKey = %q, want %q", got, want)
	}
}

// --- Benchmarks (the CI smoke job runs -bench=PathDisc -benchtime=1x) ---

func benchGraph(b *testing.B) *topology.Graph {
	g, err := topology.Mesh(8)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkPathDiscLegacyMesh8(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := AllPaths(g, "n0", "n7", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathDiscCSRMesh8(b *testing.B) {
	c := Compile(benchGraph(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.AllPaths("n0", "n7", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathDiscCSRCountMesh8(b *testing.B) {
	c := Compile(benchGraph(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.CountPaths("n0", "n7", Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPathDiscCompile(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(g)
	}
}

func BenchmarkPathDiscEqualKey(b *testing.B) {
	p := Path{
		Nodes: []string{"t1", "e1", "d1", "c1", "d4", "printS"},
		Edges: []int{0, 11, 222, 3333, 44444},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p.equalKey() == "" {
			b.Fatal("empty")
		}
	}
}
