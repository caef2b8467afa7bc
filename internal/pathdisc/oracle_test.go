package pathdisc

// This file holds the test oracle of the compiled kernel: the original
// map-based recursive DFS over topology.Graph, with a string-keyed visited
// map, a per-frame seenPair map and no pruning. It shares nothing with
// compile.go but the Options/Stats/Path types and the parity error formats,
// so the property and fuzz tests that compare Compiled.AllPaths against it
// (same paths, same order, same errors) compare two independent
// implementations.

import (
	"fmt"

	"upsim/internal/topology"
)

func validateEndpoints(g *topology.Graph, src, dst string) error {
	if !g.HasNode(src) {
		return fmt.Errorf(errFmtRequesterMissing, src)
	}
	if !g.HasNode(dst) {
		return fmt.Errorf(errFmtProviderMissing, dst)
	}
	if src == dst {
		return fmt.Errorf(errFmtSameEndpoints, src)
	}
	return nil
}

// AllPaths enumerates all simple paths from src to dst using recursive DFS
// with path tracking — the algorithm the paper selected, written directly
// over the string-keyed graph. Results are deterministic: edges are
// expanded in insertion order. It is not instrumented: only the production
// kernel feeds the search-effort metrics.
func AllPaths(g *topology.Graph, src, dst string, opts Options) ([]Path, Stats, error) {
	if err := validateEndpoints(g, src, dst); err != nil {
		return nil, Stats{}, err
	}
	var (
		stats   Stats
		out     []Path
		nodes   = []string{src}
		edges   []int
		visited = map[string]bool{src: true}
		hardHit bool
	)
	var rec func(cur string) bool // returns false to abort (MaxPaths or hard limit hit)
	rec = func(cur string) bool {
		if len(nodes) > stats.MaxStack {
			stats.MaxStack = len(nodes)
		}
		seenPair := map[string]bool{}
		for _, id := range g.IncidentEdges(cur) {
			e, _ := g.Edge(id)
			next := e.Other(cur)
			if visited[next] {
				continue // path tracking: avoid live-locks within cycles
			}
			if opts.CollapseParallel {
				if seenPair[next] {
					continue
				}
				seenPair[next] = true
			}
			if opts.MaxDepth > 0 && len(edges)+1 > opts.MaxDepth {
				continue
			}
			stats.EdgeVisits++
			nodes = append(nodes, next)
			edges = append(edges, id)
			if next == dst {
				out = append(out, Path{Nodes: append([]string(nil), nodes...), Edges: append([]int(nil), edges...)})
				stats.Paths++
				if opts.HardMaxPaths > 0 && stats.Paths > opts.HardMaxPaths {
					hardHit = true
					nodes = nodes[:len(nodes)-1]
					edges = edges[:len(edges)-1]
					return false
				}
				if opts.MaxPaths > 0 && stats.Paths >= opts.MaxPaths {
					stats.Truncated = true
					nodes = nodes[:len(nodes)-1]
					edges = edges[:len(edges)-1]
					return false
				}
			} else {
				visited[next] = true
				ok := rec(next)
				visited[next] = false
				if !ok {
					nodes = nodes[:len(nodes)-1]
					edges = edges[:len(edges)-1]
					return false
				}
			}
			nodes = nodes[:len(nodes)-1]
			edges = edges[:len(edges)-1]
		}
		return true
	}
	rec(src)
	if hardHit {
		return nil, stats, &LimitError{Src: src, Dst: dst, Limit: opts.HardMaxPaths}
	}
	stats.NodeVisits = stats.EdgeVisits + 1
	return out, stats, nil
}
