package main

// The benchmark experiments (cache, depend, whatif, warm, kbest) share one
// measurement methodology. One timed sample is: collect the heap, run one
// untimed warm-up (runtime.GC purges sync.Pools, so the first run after it
// re-allocates scratch), then time a calibrated batch of consecutive runs
// and average it into a per-run figure. Timing a single microsecond run is
// unsound: one GC pause or scheduler blip inside the window swamps the
// signal, and single-shot timing let a pause land in the same variant's slot
// on every repetition, a bias best-of cannot remove. Variants interleave
// with alternating order so drift hits them equally, the best repetition
// represents each variant, and mannWhitneyDistinct decides whether a delta
// between them is signal at all; when it is not, the speedup is reported as
// exactly 1 ("parity").

import (
	"math"
	"sort"
)

// mannWhitneyDistinct reports whether two timing sample sets are
// distinguishable at alpha = 0.05 by a two-sided Mann-Whitney U test (normal
// approximation with midranks for ties). Comparing raw best-of figures
// between near-identical code paths manufactures phantom regressions out of
// scheduler noise; a rank test over the whole sample set is how benchstat
// decides whether to print a delta at all.
func mannWhitneyDistinct(a, b []int64) bool {
	type obs struct {
		v     int64
		fromA bool
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Midranks: tied values share the mean of the ranks they occupy.
	ranks := make([]float64, len(all))
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // ranks are 1-based
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		i = j
	}
	var rankSumA float64
	for i, o := range all {
		if o.fromA {
			rankSumA += ranks[i]
		}
	}
	n1, n2 := float64(len(a)), float64(len(b))
	u := rankSumA - n1*(n1+1)/2
	mean := n1 * n2 / 2
	sigma := math.Sqrt(n1 * n2 * (n1 + n2 + 1) / 12)
	if sigma == 0 {
		return false
	}
	z := (u - mean) / sigma
	return math.Abs(z) > 1.96
}
