package pathdisc

// This file implements the budgeted ranked discovery mode of the compiled
// kernel: Yen's k-shortest-paths over the CSR adjacency, with edge costs
// resolved once from model stereotypes (SetEdgeCosts) and a hop-count
// fallback. All-simple-paths enumeration is exponential, so a pathological
// pair can only be answered with a hard-limit error (LimitError, kind
// "paths"); KShortest instead bounds the work to K single-source shortest
// path computations — k·V·E in the worst case — and returns the K cheapest
// paths under a deterministic total order. See DESIGN.md §15.
//
// Determinism. Paths are ordered by (cost, node-name sequence, edge-ID
// sequence). Cost ties are resolved exactly — no epsilon — which requires a
// fixed float summation order: every path cost in this file is the
// right-to-left fold c(e1) + (c(e2) + (… + 0)), the same arithmetic the
// reverse Dijkstra performs when it relaxes dist[v] = c(e) + dist[w]
// toward the destination. PathCost exposes the fold so callers (and the
// brute-force property test) reproduce kernel costs bit-identically.
//
// Allocation. The spur searches run on the pooled scratch: the binary heap,
// the float distance table, the blocked-edge bitset and the candidate
// arena are all reused across enumerations, so a warm KShortest performs
// only the handful of allocations that escape into the returned paths
// (pinned by TestKShortestAllocs).

import (
	"fmt"
	"math"
)

// CostMetric selects the edge-cost model of ranked discovery.
type CostMetric uint8

const (
	// CostHops charges every edge 1: K shortest paths by hop count. The
	// zero value, and the fallback when no cost view is installed.
	CostHops CostMetric = iota
	// CostThroughput charges an edge 1/throughput (Mbps, from the
	// Communication stereotype's attribute, resolved by SetEdgeCosts) and 1
	// when the edge carries no positive throughput — the same per-edge cost
	// the provenance path records report (internal/explain).
	CostThroughput
)

// String renders the metric in its wire form ("hops", "throughput").
func (m CostMetric) String() string {
	switch m {
	case CostHops:
		return "hops"
	case CostThroughput:
		return "throughput"
	}
	return fmt.Sprintf("CostMetric(%d)", uint8(m))
}

// ParseCostMetric parses the wire form accepted by the HTTP and CLI
// surfaces; the empty string selects CostHops.
func ParseCostMetric(s string) (CostMetric, error) {
	switch s {
	case "", "hops":
		return CostHops, nil
	case "throughput":
		return CostThroughput, nil
	}
	return CostHops, fmt.Errorf("pathdisc: unknown cost metric %q (want \"hops\" or \"throughput\")", s)
}

// EdgeCostFunc resolves the throughput (in Mbps) of one topology edge ID.
// ok reports whether the edge carries a positive throughput attribute;
// edges that resolve to false cost 1 (the hop fallback). The function is
// retained by SetEdgeCosts so incremental patches (PatchAddEdge) keep the
// cost view coherent with a fresh compile of the mutated graph.
type EdgeCostFunc func(edgeID int) (mbps float64, ok bool)

// SetEdgeCosts installs the stereotype cost view: fn is resolved once per
// compiled edge (and once per subsequently patched-in edge), never during
// search. Passing nil removes the view, reverting CostThroughput to the
// hop fallback. Not safe concurrently with searches — like patching,
// callers serialise it against enumeration (Generators install the view at
// construction time).
func (c *Compiled) SetEdgeCosts(fn EdgeCostFunc) {
	c.costFn = fn
	if fn == nil {
		c.costOf, c.costMbps = nil, nil
		return
	}
	c.costOf = make([]float64, c.maxEdgeID+1)
	c.costMbps = make([]float64, c.maxEdgeID+1)
	for i := range c.costOf {
		c.costOf[i] = 1
	}
	for _, e := range c.adjEdge {
		c.resolveCost(int(e))
	}
}

// resolveCost fills the cost-view slot of one edge ID from the retained
// resolver. Slots default to the hop cost 1 / throughput 0.
func (c *Compiled) resolveCost(edgeID int) {
	if c.costFn == nil || edgeID < 0 || edgeID >= len(c.costOf) {
		return
	}
	if mbps, ok := c.costFn(edgeID); ok && mbps > 0 {
		c.costOf[edgeID] = 1 / mbps
		c.costMbps[edgeID] = mbps
	} else {
		c.costOf[edgeID] = 1
		c.costMbps[edgeID] = 0
	}
}

// edgeCost returns the cost of traversing edge e under the metric. Always
// positive: Dijkstra's monotonicity and the simplicity of extracted walks
// both rest on that.
//
//upsim:hotpath one lookup per relaxation
func (c *Compiled) edgeCost(metric CostMetric, e int32) float64 {
	if metric == CostHops || c.costOf == nil {
		return 1
	}
	if int(e) < len(c.costOf) {
		return c.costOf[e]
	}
	return 1 // edge patched in after SetEdgeCosts with no resolution: hop fallback
}

// EdgeMbps returns the resolved throughput of one topology edge ID (0 when
// the edge carries none, or when no cost view is installed) — the
// bottleneck input the ranked-path records join with the provenance
// records' BottleneckMbps.
func (c *Compiled) EdgeMbps(edgeID int) float64 {
	if edgeID >= 0 && edgeID < len(c.costMbps) {
		return c.costMbps[edgeID]
	}
	return 0
}

// PathCost computes a path's cost under the metric using the kernel's
// right-to-left summation convention, so a caller ranking paths itself
// (the property test's brute force, the per-path response records) gets
// floats bit-identical to KShortest's internal ordering.
func (c *Compiled) PathCost(metric CostMetric, p Path) float64 {
	var cost float64
	for i := len(p.Edges) - 1; i >= 0; i-- {
		cost = c.edgeCost(metric, int32(p.Edges[i])) + cost
	}
	return cost
}

// kheapEntry is one binary-heap slot of the pooled Dijkstra frontier.
type kheapEntry struct {
	dist float64
	node int32
}

// kpath is one accepted or candidate path in Compiled-internal form. Node
// and edge storage is carved from the pooled scratch arena.
type kpath struct {
	cost  float64
	nodes []int32
	edges []int32
}

// ksearch is the per-enumeration state of one KShortest run.
type ksearch struct {
	c      *Compiled
	s      *scratch
	metric CostMetric
	dst    int32
	stats  Stats
}

// Blocked-set helpers: root-path nodes are blocked through the scratch
// visited bitset (the same one the DFS kernels use for path tracking), spur
// edges through the eblock bitset sized by the largest edge ID.

//upsim:hotpath bitset ops, one per relaxation
func (k *ksearch) blockEdge(e int32) { k.s.eblock[e>>6] |= 1 << (uint(e) & 63) }

//upsim:hotpath
func (k *ksearch) edgeBlocked(e int32) bool { return k.s.eblock[e>>6]&(1<<(uint(e)&63)) != 0 }

//upsim:hotpath
func (k *ksearch) nodeBlocked(v int32) bool {
	return k.s.visited[v>>6]&(1<<(uint(v)&63)) != 0
}

// push inserts a frontier entry, sifting up.
//
//upsim:hotpath
func (k *ksearch) push(e kheapEntry) {
	h := append(k.s.kheap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.s.kheap = h
}

// pop removes the minimum frontier entry, sifting down.
//
//upsim:hotpath
func (k *ksearch) pop() kheapEntry {
	h := k.s.kheap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l].dist < h[m].dist {
			m = l
		}
		if r < n && h[r].dist < h[m].dist {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	k.s.kheap = h
	return top
}

// dijkstra fills s.fdist with the cheapest cost from every node to dst
// under the current node and edge blocks (+Inf when unreachable) — the
// reverse single-source pass each Yen spur runs. Lazy deletion: stale heap
// entries are skipped on pop instead of being decreased in place.
//
//upsim:hotpath the inner loop of ranked discovery
func (k *ksearch) dijkstra() {
	s := k.s
	for i := range s.fdist {
		s.fdist[i] = math.Inf(1)
	}
	s.kheap = s.kheap[:0]
	s.fdist[k.dst] = 0
	k.push(kheapEntry{dist: 0, node: k.dst})
	for len(s.kheap) > 0 {
		e := k.pop()
		if e.dist > s.fdist[e.node] {
			continue // stale entry superseded by a cheaper relaxation
		}
		k.stats.NodeVisits++
		for j := k.c.adjStart[e.node]; j < k.c.adjStart[e.node+1]; j++ {
			next := k.c.adjNode[j]
			eid := k.c.adjEdge[j]
			if k.nodeBlocked(next) || k.edgeBlocked(eid) {
				continue
			}
			k.stats.EdgeVisits++
			nd := k.c.edgeCost(k.metric, eid) + e.dist
			if nd < s.fdist[next] {
				s.fdist[next] = nd
				k.push(kheapEntry{dist: nd, node: next})
			}
		}
	}
}

// extract appends to s.nodes/s.edges the lexicographically-least cheapest
// path from `from` to dst implied by the current fdist table: at every step
// it takes the tight edge (fdist[next] + cost == fdist[cur], exact float
// equality) whose endpoint has the smallest node name, breaking residual
// ties (parallel edges) on the smallest edge ID. Every positive-cost tight
// step strictly decreases fdist, so the walk is simple and terminates at
// dst without explicit tracking. Returns false only if no tight edge
// exists, which cannot happen for a finite fdist[from] under unchanged
// blocks (defensive).
//
//upsim:hotpath
func (k *ksearch) extract(from int32) bool {
	s := k.s
	cur := from
	for cur != k.dst {
		best := int32(-1)
		var bestNode, bestEdge int32
		for j := k.c.adjStart[cur]; j < k.c.adjStart[cur+1]; j++ {
			next := k.c.adjNode[j]
			eid := k.c.adjEdge[j]
			if k.nodeBlocked(next) || k.edgeBlocked(eid) {
				continue
			}
			if s.fdist[next]+k.c.edgeCost(k.metric, eid) != s.fdist[cur] {
				continue
			}
			if best < 0 || k.c.names[next] < k.c.names[bestNode] ||
				(next == bestNode && eid < bestEdge) {
				best, bestNode, bestEdge = j, next, eid
			}
		}
		if best < 0 {
			return false
		}
		s.nodes = append(s.nodes, bestNode)
		s.edges = append(s.edges, bestEdge)
		cur = bestNode
	}
	return true
}

// carve copies the current s.nodes/s.edges buffers into the pooled arena
// and returns them as a kpath with the given cost. Appending to the arena
// may grow it; previously carved slices keep referencing the old backing
// array, whose contents are never mutated, so they stay valid.
func (k *ksearch) carve(cost float64) kpath {
	s := k.s
	no := len(s.karena)
	s.karena = append(s.karena, s.nodes...)
	nodes := s.karena[no:len(s.karena):len(s.karena)]
	eo := len(s.karena)
	s.karena = append(s.karena, s.edges...)
	edges := s.karena[eo:len(s.karena):len(s.karena)]
	return kpath{cost: cost, nodes: nodes, edges: edges}
}

// sameSeq reports whether a kpath equals the current buffer contents.
func (k *ksearch) sameSeq(p kpath) bool {
	s := k.s
	if len(p.nodes) != len(s.nodes) || len(p.edges) != len(s.edges) {
		return false
	}
	for i, v := range p.nodes {
		if s.nodes[i] != v {
			return false
		}
	}
	for i, e := range p.edges {
		if s.edges[i] != e {
			return false
		}
	}
	return true
}

// lessKPath is the deterministic total order of ranked discovery: cost
// (exact float compare — all costs share one summation order), then the
// node-name sequence, then the edge-ID sequence.
func (c *Compiled) lessKPath(a, b kpath) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	for i := 0; i < len(a.nodes) && i < len(b.nodes); i++ {
		an, bn := c.names[a.nodes[i]], c.names[b.nodes[i]]
		if an != bn {
			return an < bn
		}
	}
	if len(a.nodes) != len(b.nodes) {
		return len(a.nodes) < len(b.nodes)
	}
	for i := 0; i < len(a.edges) && i < len(b.edges); i++ {
		if a.edges[i] != b.edges[i] {
			return a.edges[i] < b.edges[i]
		}
	}
	return false
}

// prefixMatches reports whether accepted path p shares prev's root prefix
// through spur index i: same first i+1 nodes and first i edges, with an
// edge at position i to block.
func prefixMatches(p, prev kpath, i int) bool {
	if len(p.edges) <= i {
		return false
	}
	for j := 0; j <= i; j++ {
		if p.nodes[j] != prev.nodes[j] {
			return false
		}
	}
	for j := 0; j < i; j++ {
		if p.edges[j] != prev.edges[j] {
			return false
		}
	}
	return true
}

// KShortest returns the opts.K cheapest simple paths from src to dst under
// opts.CostMetric, ordered by (cost, node-name sequence, edge-ID sequence)
// — Yen's algorithm over the compiled adjacency, with every spur search a
// pooled binary-heap Dijkstra. Fewer than K paths are returned when the
// pair admits fewer; a disconnected pair returns an empty slice and no
// error (ranked discovery answers "the best you can get", enumeration
// semantics like AllowDisconnected stay with the full enumeration).
//
// Unlike the enumeration entry points, KShortest ignores MaxDepth,
// MaxPaths, CollapseParallel and HardMaxPaths: its bound is the K·V·E work
// envelope, enforced up front through Options.MaxWork — exceeding it
// returns a *LimitError with Kind "kbest" before any search runs.
// Stats.Truncated reports that exactly K paths were returned (more may
// exist); Paths, NodeVisits and EdgeVisits count the ranked search effort.
func (c *Compiled) KShortest(src, dst string, opts Options) ([]Path, Stats, error) {
	s0, d0, err := c.validate(src, dst)
	if err != nil {
		return nil, Stats{}, err
	}
	if opts.K <= 0 {
		return nil, Stats{}, fmt.Errorf("pathdisc: k must be positive (got %d)", opts.K)
	}
	if opts.MaxWork > 0 {
		// The work envelope: K spur rounds, each at most one Dijkstra per
		// path node, each Dijkstra O(E log V) — estimated as K·V·E, the
		// coarse bound documented in docs/API.md. Estimated before any
		// search so an over-budget request costs nothing.
		if est := opts.K * c.liveNodes * c.numEdges; est > opts.MaxWork {
			return nil, Stats{}, &LimitError{
				Src: src, Dst: dst, Kind: LimitKBest, Need: est, Limit: opts.MaxWork,
			}
		}
	}
	s := c.getScratch()
	defer c.putScratch(s)
	// The float distance table and the blocked-edge bitset are sized
	// lazily: node growth swaps the whole pool (resetPool), but patched-in
	// edges grow maxEdgeID without a pool swap.
	if len(s.fdist) < len(c.names) {
		s.fdist = make([]float64, len(c.names))
	}
	if words := (c.maxEdgeID + 64) / 64; len(s.eblock) < words {
		s.eblock = make([]uint64, words)
	}
	clear(s.eblock)
	k := &ksearch{c: c, s: s, metric: opts.CostMetric, dst: d0}

	// First shortest path: no blocks.
	k.dijkstra()
	if math.IsInf(s.fdist[s0], 1) {
		observe("csr-kbest", k.stats)
		return nil, k.stats, nil
	}
	s.nodes = append(s.nodes[:0], s0)
	s.edges = s.edges[:0]
	if !k.extract(s0) {
		return nil, k.stats, fmt.Errorf("pathdisc: internal: no tight edge from %q", src)
	}
	s.kacc = append(s.kacc, k.carve(s.fdist[s0]))

	for len(s.kacc) < opts.K {
		prev := s.kacc[len(s.kacc)-1]
		for i := 0; i < len(prev.nodes)-1; i++ {
			spur := prev.nodes[i]
			// Block the root-path nodes before the spur node, and the
			// spur-position edge of every accepted path sharing the root.
			for _, v := range prev.nodes[:i] {
				s.visited[v>>6] |= 1 << (uint(v) & 63)
			}
			clear(s.eblock)
			for _, p := range s.kacc {
				if prefixMatches(p, prev, i) {
					k.blockEdge(p.edges[i])
				}
			}
			k.dijkstra()
			if !math.IsInf(s.fdist[spur], 1) {
				s.nodes = append(s.nodes[:0], prev.nodes[:i+1]...)
				s.edges = append(s.edges[:0], prev.edges[:i]...)
				if k.extract(spur) {
					// Total cost keeps the right-to-left fold: the spur
					// tail's cost is fdist[spur] by construction, the root
					// edges fold on from the inside out.
					cost := s.fdist[spur]
					for j := i - 1; j >= 0; j-- {
						cost = c.edgeCost(opts.CostMetric, prev.edges[j]) + cost
					}
					dup := false
					for _, p := range s.kcand {
						if k.sameSeq(p) {
							dup = true
							break
						}
					}
					if !dup {
						s.kcand = append(s.kcand, k.carve(cost))
					}
				}
			}
			for _, v := range prev.nodes[:i] {
				s.visited[v>>6] &^= 1 << (uint(v) & 63)
			}
		}
		if len(s.kcand) == 0 {
			break
		}
		mi := 0
		for j := 1; j < len(s.kcand); j++ {
			if c.lessKPath(s.kcand[j], s.kcand[mi]) {
				mi = j
			}
		}
		s.kacc = append(s.kacc, s.kcand[mi])
		s.kcand[mi] = s.kcand[len(s.kcand)-1]
		s.kcand = s.kcand[:len(s.kcand)-1]
	}
	clear(s.eblock)

	out := make([]Path, 0, len(s.kacc))
	var nameArena []string
	var edgeArena []int
	for _, p := range s.kacc {
		if cap(nameArena)-len(nameArena) < len(p.nodes) {
			nameArena = make([]string, 0, arenaChunk(len(p.nodes)))
		}
		nb := len(nameArena)
		for _, v := range p.nodes {
			nameArena = append(nameArena, c.names[v])
		}
		if cap(edgeArena)-len(edgeArena) < len(p.edges) {
			edgeArena = make([]int, 0, arenaChunk(len(p.edges)))
		}
		eb := len(edgeArena)
		for _, e := range p.edges {
			edgeArena = append(edgeArena, int(e))
		}
		out = append(out, Path{
			Nodes: nameArena[nb : nb+len(p.nodes) : nb+len(p.nodes)],
			Edges: edgeArena[eb : eb+len(p.edges) : eb+len(p.edges)],
		})
		if len(p.nodes) > k.stats.MaxStack {
			k.stats.MaxStack = len(p.nodes)
		}
	}
	k.stats.Paths = len(out)
	k.stats.Truncated = len(out) == opts.K
	observe("csr-kbest", k.stats)
	return out, k.stats, nil
}
