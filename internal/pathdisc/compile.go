package pathdisc

// This file implements the compiled path-discovery kernel: a one-time
// lowering of the string-keyed topology.Graph into an integer-indexed CSR
// (compressed sparse row) form over which the exponential all-simple-paths
// search runs allocation-free per expansion. A walker over the graph itself
// pays a string hash, an Edge struct copy and a string compare per
// expansion, plus one map allocation per expanded node; the compiled kernel
// replaces all of that with array indexing and a []uint64 visited bitset,
// and additionally prunes dead-end subtrees with a reverse BFS from the
// provider before the exponential search enters them. See DESIGN.md §9.

import (
	"fmt"
	"math"
	"sync"

	"upsim/internal/obs"
	"upsim/internal/topology"
)

// Compiled-kernel metrics: compilation events and sizes, exposed on
// /metrics next to the per-mode search histograms.
var (
	mCompile = obs.NewCounter("upsim_pathdisc_compile_total",
		"Topology graphs lowered to CSR form.")
	mCompiledNodes = obs.NewGauge("upsim_pathdisc_compiled_nodes",
		"Node count of the most recently compiled graph.")
	mCompiledEdges = obs.NewGauge("upsim_pathdisc_compiled_edges",
		"Edge count of the most recently compiled graph.")
)

// Compiled is the integer-indexed CSR form of a topology.Graph, built once
// by Compile and reusable across any number of enumerations (it is
// immutable after construction and safe for concurrent use; per-search
// scratch comes from an internal sync.Pool). Node IDs are dense ints in
// graph insertion order; adjacency entries keep the graph's edge insertion
// order, so enumeration reports paths in the order a DFS over the graph
// itself would.
type Compiled struct {
	names []string         // dense node ID -> node name
	index map[string]int32 // node name -> dense node ID

	// Full CSR adjacency: entries [adjStart[v], adjStart[v+1]) are node v's
	// incident edges, as (opposite endpoint, topology edge ID) pairs.
	adjStart []int32
	adjNode  []int32
	adjEdge  []int32

	// Collapsed CSR adjacency: as above, but keeping only the first edge per
	// (node, neighbour) pair — the static equivalent of the per-frame
	// seenPair map of Options.CollapseParallel. Shares the full arrays when
	// the graph has no parallel edges.
	colStart []int32
	colNode  []int32
	colEdge  []int32

	numEdges  int
	liveNodes int // names minus tombstoned slots (see patch.go)
	maxDegree int
	maxEdgeID int // largest topology edge ID seen (IDs are never reused)

	// Stereotype cost view of ranked discovery (kbest.go): per-edge-ID
	// traversal cost and throughput, resolved once by SetEdgeCosts (and per
	// patched-in edge via the retained resolver), indexed by topology edge
	// ID. Nil until SetEdgeCosts installs a view; CostThroughput then falls
	// back to hop costs.
	costOf   []float64
	costMbps []float64
	costFn   EdgeCostFunc

	// pool holds *scratch sized for the current node count. It is a pointer
	// so PatchAddNode can swap in a freshly-sized pool when the node count
	// grows (assigning a sync.Pool value would copy its internal lock).
	pool *sync.Pool
}

// scratch is the reusable per-enumeration state: the visited bitset, the
// reverse-BFS distance table with its queue, and the path buffers. One
// scratch serves one search at a time; the pool amortises them across
// searches.
type scratch struct {
	visited []uint64 // bitset, one bit per node, all zero between uses
	dist    []int32  // hop distance to the provider, -1 when unreachable
	queue   []int32
	nodes   []int32
	edges   []int32

	// Ranked-discovery state (kbest.go): the Dijkstra distance table and
	// frontier heap, the blocked-edge bitset (all zero between uses, like
	// visited), and the candidate storage Yen's algorithm accumulates into
	// — an int32 arena plus the accepted/candidate path slices referencing
	// it. All reused across enumerations.
	fdist  []float64
	kheap  []kheapEntry
	eblock []uint64
	karena []int32
	kacc   []kpath
	kcand  []kpath
}

// Compile lowers a topology graph into its CSR form. The cost is one pass
// over nodes and edges — O(V+E) — amortised across every subsequent
// enumeration: the Generator compiles once per model and reuses the kernel
// for all mapping pairs, batch items and perspectives.
func Compile(g *topology.Graph) *Compiled {
	nodes := g.Nodes()
	c := &Compiled{
		names:    make([]string, len(nodes)),
		index:    make(map[string]int32, len(nodes)),
		numEdges: g.NumEdges(),
	}
	for i, n := range nodes {
		c.names[i] = n.Name
		c.index[n.Name] = int32(i)
	}
	n := len(nodes)
	c.adjStart = make([]int32, n+1)
	total := 0
	for i := 0; i < n; i++ {
		d := g.Degree(c.names[i])
		total += d
		if d > c.maxDegree {
			c.maxDegree = d
		}
		c.adjStart[i+1] = int32(total)
	}
	c.adjNode = make([]int32, total)
	c.adjEdge = make([]int32, total)
	pos := 0
	parallel := false
	for i := 0; i < n; i++ {
		name := c.names[i]
		seen := make(map[int32]bool, 4)
		for _, id := range g.IncidentEdges(name) {
			e, _ := g.Edge(id)
			o := c.index[e.Other(name)]
			c.adjNode[pos] = o
			c.adjEdge[pos] = int32(id)
			pos++
			if id > c.maxEdgeID {
				c.maxEdgeID = id
			}
			if seen[o] {
				parallel = true
			}
			seen[o] = true
		}
	}
	if !parallel {
		// No parallel edges: the collapsed view is the full view.
		c.colStart, c.colNode, c.colEdge = c.adjStart, c.adjNode, c.adjEdge
	} else {
		c.colStart = make([]int32, n+1)
		c.colNode = make([]int32, 0, total)
		c.colEdge = make([]int32, 0, total)
		for i := 0; i < n; i++ {
			seen := make(map[int32]bool, 4)
			for j := c.adjStart[i]; j < c.adjStart[i+1]; j++ {
				o := c.adjNode[j]
				if seen[o] {
					continue
				}
				seen[o] = true
				c.colNode = append(c.colNode, o)
				c.colEdge = append(c.colEdge, c.adjEdge[j])
			}
			c.colStart[i+1] = int32(len(c.colNode))
		}
	}
	c.liveNodes = n
	c.resetPool()
	mCompile.With().Inc()
	mCompiledNodes.With().Set(int64(n))
	mCompiledEdges.With().Set(int64(c.numEdges))
	return c
}

// NumNodes returns the compiled node count (excluding slots tombstoned by
// PatchRemoveNode).
func (c *Compiled) NumNodes() int { return c.liveNodes }

// NumEdges returns the compiled edge count (parallel edges counted).
func (c *Compiled) NumEdges() int { return c.numEdges }

// MaxDegree returns the largest node degree.
func (c *Compiled) MaxDegree() int { return c.maxDegree }

// resetPool installs a scratch pool sized for the current node count.
// Called by Compile and again by PatchAddNode when the universe grows (the
// visited bitset and dist table are indexed by dense node ID, so old
// scratch would be too small).
func (c *Compiled) resetPool() {
	n := len(c.names)
	words := (n + 63) / 64
	c.pool = &sync.Pool{New: func() any {
		return &scratch{
			visited: make([]uint64, words),
			dist:    make([]int32, n),
			queue:   make([]int32, 0, n),
			nodes:   make([]int32, 0, 16),
			edges:   make([]int32, 0, 16),
			fdist:   make([]float64, n),
		}
	}}
}

// getScratch takes a clean scratch from the pool.
func (c *Compiled) getScratch() *scratch { return c.pool.Get().(*scratch) }

// putScratch clears the visited bitset (the only state that must be clean on
// reuse; dist is refilled per enumeration) and returns s to the pool.
func (c *Compiled) putScratch(s *scratch) {
	clear(s.visited)
	clear(s.eblock)
	s.nodes = s.nodes[:0]
	s.edges = s.edges[:0]
	s.kheap = s.kheap[:0]
	s.karena = s.karena[:0]
	s.kacc = s.kacc[:0]
	s.kcand = s.kcand[:0]
	c.pool.Put(s)
}

func (c *Compiled) validate(src, dst string) (int32, int32, error) {
	s, ok := c.index[src]
	if !ok {
		return 0, 0, fmt.Errorf(errFmtRequesterMissing, src)
	}
	d, ok := c.index[dst]
	if !ok {
		return 0, 0, fmt.Errorf(errFmtProviderMissing, dst)
	}
	if s == d {
		return 0, 0, fmt.Errorf(errFmtSameEndpoints, src)
	}
	return s, d, nil
}

// adjacency selects the full or collapsed CSR view per the options.
func (c *Compiled) adjacency(opts Options) (start, node, edge []int32) {
	if opts.CollapseParallel {
		return c.colStart, c.colNode, c.colEdge
	}
	return c.adjStart, c.adjNode, c.adjEdge
}

// reverseBFS fills s.dist with the hop distance from every node to dst
// (-1 when dst is unreachable) — the destination-reachability pruning pass.
// Soundness: any simple path suffix from a node v to dst is a walk proving
// dist[v] >= 0 and dist[v] <= remaining hops, so skipping nodes that fail
// either test can never remove a reportable path; it only skips subtrees in
// which every continuation dead-ends (see DESIGN.md §9 for the sketch).
//
//upsim:hotpath
func (c *Compiled) reverseBFS(s *scratch, dst int32) {
	for i := range s.dist {
		s.dist[i] = -1
	}
	s.dist[dst] = 0
	// Index the queue instead of reslicing its head away: every node is
	// enqueued at most once, so the pooled capacity of n is never exceeded
	// and the pass allocates nothing.
	s.queue = append(s.queue[:0], dst)
	for i := 0; i < len(s.queue); i++ {
		cur := s.queue[i]
		for j := c.adjStart[cur]; j < c.adjStart[cur+1]; j++ {
			o := c.adjNode[j]
			if s.dist[o] < 0 {
				s.dist[o] = s.dist[cur] + 1
				s.queue = append(s.queue, o)
			}
		}
	}
}

// depthBudget converts Options.MaxDepth into the pruning budget.
func depthBudget(opts Options) int {
	if opts.MaxDepth > 0 {
		return opts.MaxDepth
	}
	return math.MaxInt32
}

// csrSearch is one CSR enumeration: the DFS state plus the accumulated
// result. With countOnly set the search counts reportable paths in
// stats.Paths instead of materialising them into out.
type csrSearch struct {
	c         *Compiled
	s         *scratch
	start     []int32
	adjNode   []int32
	adjEdge   []int32
	dst       int32
	budget    int
	maxPaths  int
	hardMax   int // Options.HardMaxPaths; exceeding it sets overflow
	overflow  bool
	countOnly bool
	out       []Path
	stats     Stats

	// Path arenas: emitted Nodes/Edges slices are carved out of chunked
	// backing arrays, two allocations per chunk instead of two per path.
	// The chunks escape into the returned Paths, so they are per-search
	// state, never pooled.
	nameArena []string
	edgeArena []int
}

//upsim:hotpath bitset membership ops, one per DFS expansion
func (q *csrSearch) visit(v int32) { q.s.visited[v>>6] |= 1 << (uint(v) & 63) }

//upsim:hotpath
func (q *csrSearch) unvisit(v int32) { q.s.visited[v>>6] &^= 1 << (uint(v) & 63) }

//upsim:hotpath
func (q *csrSearch) isVisited(v int32) bool { return q.s.visited[v>>6]&(1<<(uint(v)&63)) != 0 }

// arenaChunk sizes a fresh arena chunk: big enough for the requested path
// and for a few hundred more like it.
func arenaChunk(need int) int {
	const chunk = 2048
	if need > chunk {
		return need
	}
	return chunk
}

// emit materialises the current path buffer as a Path. Backing storage comes
// from the search's arenas; full slice expressions cap every path at its own
// region, so a caller appending to a returned Path reallocates instead of
// clobbering the next path.
//
//upsim:hotpath
func (q *csrSearch) emit() {
	nl := len(q.s.nodes)
	if cap(q.nameArena)-len(q.nameArena) < nl {
		q.nameArena = make([]string, 0, arenaChunk(nl))
	}
	nb := len(q.nameArena)
	for _, v := range q.s.nodes {
		q.nameArena = append(q.nameArena, q.c.names[v])
	}
	names := q.nameArena[nb : nb+nl : nb+nl]

	el := len(q.s.edges)
	if cap(q.edgeArena)-len(q.edgeArena) < el {
		q.edgeArena = make([]int, 0, arenaChunk(el))
	}
	eb := len(q.edgeArena)
	for _, e := range q.s.edges {
		q.edgeArena = append(q.edgeArena, int(e))
	}
	edges := q.edgeArena[eb : eb+el : eb+el]

	q.out = append(q.out, Path{Nodes: names, Edges: edges})
	q.stats.Paths++
}

// rec is the recursive CSR DFS with path tracking: the visited bitset keeps
// every reported path simple and the search out of live-locks in cycles.
// Expansions follow adjacency (edge insertion) order. Pruned expansions
// (dead ends, or detours provably longer than the depth budget) are skipped
// before being traversed, which lowers EdgeVisits, is counted in
// Stats.Pruned and never removes a reportable path. Returns false to abort
// on MaxPaths or the hard limit.
//
//upsim:hotpath
func (q *csrSearch) rec(cur int32) bool {
	if len(q.s.nodes) > q.stats.MaxStack {
		q.stats.MaxStack = len(q.s.nodes)
	}
	for j := q.start[cur]; j < q.start[cur+1]; j++ {
		next := q.adjNode[j]
		if q.isVisited(next) {
			continue
		}
		if d := q.s.dist[next]; d < 0 || len(q.s.edges)+1+int(d) > q.budget {
			q.stats.Pruned++
			continue
		}
		q.stats.EdgeVisits++
		q.s.nodes = append(q.s.nodes, next)
		q.s.edges = append(q.s.edges, q.adjEdge[j])
		if next == q.dst {
			if q.countOnly {
				q.stats.Paths++
			} else {
				q.emit()
			}
			if q.hardMax > 0 && q.stats.Paths > q.hardMax {
				q.overflow = true
				q.pop()
				return false
			}
			if q.maxPaths > 0 && q.stats.Paths >= q.maxPaths {
				q.stats.Truncated = true
				q.pop()
				return false
			}
		} else {
			q.visit(next)
			ok := q.rec(next)
			q.unvisit(next)
			if !ok {
				q.pop()
				return false
			}
		}
		q.pop()
	}
	return true
}

//upsim:hotpath
func (q *csrSearch) pop() {
	q.s.nodes = q.s.nodes[:len(q.s.nodes)-1]
	q.s.edges = q.s.edges[:len(q.s.edges)-1]
}

// AllPaths enumerates all simple paths from src to dst over the compiled
// graph — the paper's DFS with path tracking (Section V-D), and the Step 7
// implementation of the pipeline. Results are deterministic: edges are
// expanded in the graph's insertion order. A disconnected pair yields zero
// paths and no error; more than opts.HardMaxPaths paths yield a
// *LimitError.
func (c *Compiled) AllPaths(src, dst string, opts Options) ([]Path, Stats, error) {
	out, stats, err := c.search(src, dst, opts, false)
	if err != nil {
		return nil, stats, err
	}
	observe("csr-dfs", stats)
	return out, stats, nil
}

// CountPaths counts the paths AllPaths would return without storing them:
// the same search, counting at the leaf instead of emitting. Dense graphs
// whose full enumeration would not fit in memory stay countable, which is
// what the Section V-D scalability study needs. MaxDepth, MaxPaths,
// CollapseParallel and HardMaxPaths apply exactly as in AllPaths.
func (c *Compiled) CountPaths(src, dst string, opts Options) (int, Stats, error) {
	_, stats, err := c.search(src, dst, opts, true)
	if err != nil {
		return 0, stats, err
	}
	observe("csr-count", stats)
	return stats.Paths, stats, nil
}

// search runs one enumeration for AllPaths (countOnly false) or CountPaths.
func (c *Compiled) search(src, dst string, opts Options, countOnly bool) ([]Path, Stats, error) {
	s0, d0, err := c.validate(src, dst)
	if err != nil {
		return nil, Stats{}, err
	}
	s := c.getScratch()
	defer c.putScratch(s)
	c.reverseBFS(s, d0)
	start, adjNode, adjEdge := c.adjacency(opts)
	q := &csrSearch{
		c: c, s: s, start: start, adjNode: adjNode, adjEdge: adjEdge,
		dst: d0, budget: depthBudget(opts), maxPaths: opts.MaxPaths,
		hardMax: opts.HardMaxPaths, countOnly: countOnly,
	}
	if s.dist[s0] >= 0 { // disconnected pairs skip the search entirely
		q.visit(s0)
		s.nodes = append(s.nodes, s0)
		q.rec(s0)
	}
	if q.overflow {
		return nil, q.stats, &LimitError{Src: src, Dst: dst, Limit: opts.HardMaxPaths}
	}
	q.stats.NodeVisits = q.stats.EdgeVisits + 1
	return q.out, q.stats, nil
}
