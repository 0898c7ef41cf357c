package main

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// The response checks. They are the benchmark's own code: O(input)
// properties or recomputations, never the kernels' Serial oracles.

// multisetHash is an order-independent hash of xs: equal multisets
// hash equal, so a sorted reply can be matched to its input without
// keeping a copy.
func multisetHash(xs []int64) uint64 {
	var h uint64
	for _, x := range xs {
		h += mix(uint64(x))
	}
	return h
}

func sumOf(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func prefixSums(dst, xs []int64) []int64 {
	dst = grow(dst, len(xs))
	var s int64
	for i, x := range xs {
		s += x
		dst[i] = s
	}
	return dst
}

func histogramOf(hist []int, xs []int64) []int {
	clear(hist)
	for _, x := range xs {
		hist[uint64(x)%uint64(len(hist))]++
	}
	return hist
}

// smallest returns the k smallest values of xs, ascending.
func smallest(xs []int64, k int) []int64 {
	cp := slices.Clone(xs)
	slices.Sort(cp)
	return cp[:k]
}

// ccLabels labels each node with the smallest node id of its component,
// by union-find over edges.
func ccLabels(n int, edges []graph.Edge) []int32 {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ru, rv := find(int32(e.U)), find(int32(e.V))
		if ru < rv {
			parent[rv] = ru
		} else if rv < ru {
			parent[ru] = rv
		}
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = find(int32(i)) // union by min: every root is its component's minimum
	}
	return out
}

func checkSort(xs []int64, n int, hash uint64) error {
	if len(xs) != n {
		return fmt.Errorf("sort: %d values back, sent %d", len(xs), n)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return fmt.Errorf("sort: out of order at %d", i)
		}
	}
	if multisetHash(xs) != hash {
		return fmt.Errorf("sort: reply is not a permutation of the input")
	}
	return nil
}

// checkSelect: out has rank k when fewer than k+1 values lie below it
// and at least k+1 lie at or below it.
func checkSelect(xs []int64, k int, out int64) error {
	lt, le := 0, 0
	for _, x := range xs {
		if x < out {
			lt++
		}
		if x <= out {
			le++
		}
	}
	if lt > k || le <= k {
		return fmt.Errorf("select: %d has rank [%d,%d), want %d", out, lt, le, k)
	}
	return nil
}

// checkTopK: dst ascending, of length k, and exactly the k smallest:
// with t = dst[k-1], every input value below t is in dst (same count
// and multiset hash) and the rest of dst is t, which the input holds
// often enough.
func checkTopK(xs []int64, k int, dst []int64) error {
	if len(dst) != k {
		return fmt.Errorf("topk: %d values back, want %d", len(dst), k)
	}
	if k == 0 {
		return nil
	}
	for i := 1; i < k; i++ {
		if dst[i-1] > dst[i] {
			return fmt.Errorf("topk: out of order at %d", i)
		}
	}
	t := dst[k-1]
	var below, le int
	var hx, hd uint64
	for _, x := range xs {
		if x < t {
			below++
			hx += mix(uint64(x))
		}
		if x <= t {
			le++
		}
	}
	dBelow := 0
	for _, d := range dst {
		if d < t {
			dBelow++
			hd += mix(uint64(d))
		}
	}
	if below != dBelow || hx != hd || le < k {
		return fmt.Errorf("topk: reply is not the %d smallest values", k)
	}
	return nil
}

func checkScan(xs, dst []int64) error {
	if len(dst) != len(xs) {
		return fmt.Errorf("scan: %d sums back, want %d", len(dst), len(xs))
	}
	var s int64
	for i, x := range xs {
		s += x
		if dst[i] != s {
			return fmt.Errorf("scan: Dst[%d] = %d, want %d", i, dst[i], s)
		}
	}
	return nil
}

func checkSum(xs []int64, out int64) error {
	if s := sumOf(xs); s != out {
		return fmt.Errorf("sum: %d, want %d", out, s)
	}
	return nil
}

func checkHistogram(xs []int64, hist []int) error {
	if len(hist) != histBuckets {
		return fmt.Errorf("histogram: %d buckets back, want %d", len(hist), histBuckets)
	}
	want := histogramOf(make([]int, histBuckets), xs)
	for i := range want {
		if hist[i] != want[i] {
			return fmt.Errorf("histogram: bucket %d = %d, want %d", i, hist[i], want[i])
		}
	}
	return nil
}

// checkGUPS replays the update stream on a regenerated table.
func checkGUPS(xs []int64, tableSeed, seed uint64, updates int) error {
	want := make([]int64, len(xs))
	gupsTable(want, tableSeed)
	mask := uint64(len(want) - 1)
	for i := 0; i < updates; i++ {
		r := mix(seed + uint64(i))
		want[r&mask] += int64(r | 1)
	}
	for i := range want {
		if xs[i] != want[i] {
			return fmt.Errorf("gups: Xs[%d] = %d, want %d", i, xs[i], want[i])
		}
	}
	return nil
}

// checkBFS: the source is at 0, no edge spans more than one level or
// joins a reached node to an unreached one, and every reached node
// other than the source has a neighbor one level closer (its parent).
func checkBFS(n int, edges []graph.Edge, src int, dist []int32) error {
	if len(dist) != n {
		return fmt.Errorf("bfs: %d distances back, want %d", len(dist), n)
	}
	if dist[src] != 0 {
		return fmt.Errorf("bfs: source at distance %d", dist[src])
	}
	parent := make([]bool, n)
	for _, e := range edges {
		du, dv := dist[e.U], dist[e.V]
		if (du < 0) != (dv < 0) {
			return fmt.Errorf("bfs: edge (%d,%d) joins reached and unreached", e.U, e.V)
		}
		if du < 0 {
			continue
		}
		if du-dv > 1 || dv-du > 1 {
			return fmt.Errorf("bfs: edge (%d,%d) spans levels %d and %d", e.U, e.V, du, dv)
		}
		if du == dv-1 {
			parent[e.V] = true
		}
		if dv == du-1 {
			parent[e.U] = true
		}
	}
	for v, d := range dist {
		if v != src && d >= 0 && !parent[v] {
			return fmt.Errorf("bfs: node %d at level %d has no parent", v, d)
		}
	}
	return nil
}

func checkCC(n int, edges []graph.Edge, dist []int32) error {
	want := ccLabels(n, edges)
	if len(dist) != n {
		return fmt.Errorf("cc: %d labels back, want %d", len(dist), n)
	}
	for i := range want {
		if dist[i] != want[i] {
			return fmt.Errorf("cc: label of %d = %d, want %d", i, dist[i], want[i])
		}
	}
	return nil
}

// check verifies o's reply in o.a. For a delta op the input is the
// standing record's whole data after the append.
func (o *op) check() error {
	a := &o.a
	switch o.k {
	case kSort:
		if r := o.rec; r != nil {
			return checkSort(a.Xs, r.appendedAt+len(o.d.Append), r.hash)
		}
		return checkSort(a.Xs, len(a.Xs), o.hash)
	case kSelect:
		return checkSelect(a.Xs, a.K, a.Out)
	case kTopK:
		return checkTopK(a.Xs, a.K, a.Dst)
	case kScan:
		return checkScan(a.Xs, a.Dst)
	case kSum:
		return checkSum(a.Xs, a.Out)
	case kHistogram:
		return checkHistogram(a.Xs, a.Hist)
	case kGUPS:
		return checkGUPS(a.Xs, o.gupsSeed, a.Seed, a.K)
	case kBFS:
		return checkBFS(a.G.N(), o.edges, a.Src, a.Dist)
	case kCC:
		if r := o.rec; r != nil {
			return checkCC(a.G.N(), r.edges, a.Dist)
		}
		return checkCC(a.G.N(), o.edges, a.Dist)
	}
	return fmt.Errorf("no check for kernel %s", o.k.Name)
}

// complete checks a reply and, for a delta op, folds it into the
// standing record first and releases the record after. A failed call
// resets the record: its server-side state is unknown.
func (o *op) complete(callErr error) error {
	r := o.rec
	if r == nil {
		if callErr != nil {
			return nil
		}
		return o.check()
	}
	defer r.mu.Unlock()
	o.rec = nil
	if callErr != nil {
		r.reset()
		return nil
	}
	switch r.k {
	case kSort:
		r.hash += multisetHash(o.d.Append)
	case kCC:
		r.edges = append(r.edges, o.d.Edges...)
	default:
		o.a.Xs = append(o.a.Xs[:r.appendedAt], o.d.Append...)
	}
	o.rec = r
	err := o.check()
	o.rec = nil
	r.cur = o.a
	r.deltas++
	r.applied++
	return err
}
