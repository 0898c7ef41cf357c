package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/kernel"
)

// The nine registered kernels, by name. The benchmark sends each by
// its descriptor; everything it checks is computed by its own code.
var (
	kSort      = kernel.MustLookup("sort")
	kSelect    = kernel.MustLookup("select")
	kHistogram = kernel.MustLookup("histogram")
	kScan      = kernel.MustLookup("scan")
	kSum       = kernel.MustLookup("sum")
	kBFS       = kernel.MustLookup("bfs")
	kGUPS      = kernel.MustLookup("gups")
	kTopK      = kernel.MustLookup("topk")
	kCC        = kernel.MustLookup("cc")
)

// histBuckets is the bucket count of histogram requests. The wire
// protocol installs v mod buckets on the server side.
const histBuckets = 256

// topK is the K of top-k requests.
const topK = 32

// budgetBase is the deadline budget every frame carries: far above any
// workload's latency limit, so the deadline rung runs but never
// refuses. The request id rides in the low nanoseconds (budgetBase+id),
// which lets the traced run join a server-side span to its client span.
const budgetBase = 30 * time.Second

// workload is one traffic mix against the same server deployment.
type workload struct {
	name string
	// kernels are drawn for full calls with the given weights.
	kernels []*kernel.Kernel
	weights []int
	// sizes are the element counts of slice kernels; nodes the node
	// counts of graph kernels. Each entry is one size class.
	sizes, nodes []int
	// graphsPerSize is how many distinct graphs are built per node
	// count at start; bfs sources vary per request on top.
	graphsPerSize int
	// tenants send the traffic; tenant 0 is hot and sends hotShare of
	// it, the rest share the remainder evenly.
	tenants  int
	hotShare float64
	// rate is the fixed phase's offered load in requests per second,
	// and fixedMin the fewest requests the phase holds.
	rate     float64
	fixedMin int
	// limit is the corrected-p99 latency limit of the rate search.
	limit time.Duration
	// warmReps is the closed-loop warm-up's request count per
	// (kernel, size class).
	warmReps int
	// search shapes the rate search: rates from searchLo up by factor
	// searchStep until a trial misses the limit, each trial holding
	// at least searchMin requests and lasting at least searchSec.
	searchLo, searchStep float64
	searchMin            int
	searchSec            float64
	// Repeat traffic: each tenant cycles workingSet inputs per
	// (kernel, size class), and deltaShare of requests are CallDelta
	// appends to the tenant's standing records.
	workingSet int
	deltaShare float64
}

// Standing-record geometry of the repeat workload: records start at
// standingBase elements (nodes, for cc), each delta appends
// deltaAppend values (or deltaEdges edges), and a record is reset to
// its base after standingDeltas deltas, so the cost per request cycles
// instead of drifting with the run's length.
const (
	standingBase   = 2048
	deltaAppend    = 64
	deltaEdges     = 8
	standingDeltas = 32
)

var allKernels = []*kernel.Kernel{kSort, kSelect, kHistogram, kScan, kSum, kBFS, kGUPS, kTopK, kCC}

var ones9 = []int{1, 1, 1, 1, 1, 1, 1, 1, 1}

var workloads = []*workload{
	{
		name:    "small-distinct",
		kernels: allKernels, weights: ones9,
		sizes: []int{1024, 2048, 4096}, nodes: []int{1024, 2048, 4096},
		graphsPerSize: 16,
		tenants:       8, hotShare: 0.3,
		rate: 1000, fixedMin: 1000,
		limit:    20 * time.Millisecond,
		warmReps: 48,
		searchLo: 3000, searchStep: 1.25, searchMin: 3000, searchSec: 1,
	},
	{
		name:    "small-repeat",
		kernels: allKernels, weights: ones9,
		sizes: []int{1024, 2048, 4096}, nodes: []int{1024, 2048, 4096},
		graphsPerSize: 4,
		tenants:       8, hotShare: 0.3,
		rate: 1000, fixedMin: 1000,
		limit:    20 * time.Millisecond,
		warmReps: 48,
		searchLo: 3000, searchStep: 1.25, searchMin: 3000, searchSec: 1,
		workingSet: 4, deltaShare: 0.3,
	},
	{
		name:    "large-stream",
		kernels: []*kernel.Kernel{kSort, kScan, kSelect, kTopK, kBFS, kCC},
		weights: []int{2, 2, 2, 2, 1, 1},
		sizes:   []int{256 << 10, 512 << 10}, nodes: []int{64 << 10, 128 << 10},
		graphsPerSize: 2,
		tenants:       3, hotShare: 1.0 / 3,
		rate: 8, fixedMin: 240,
		limit:    500 * time.Millisecond,
		warmReps: 3,
		searchLo: 25, searchStep: 1.2, searchMin: 60, searchSec: 2,
	},
}

// fixedN is the fixed phase's request count: seconds at the workload's
// rate, or fixedMin when that is more.
func (w *workload) fixedN(seconds int) int {
	return max(w.fixedMin, int(w.rate*float64(seconds)))
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// mix is the SplitMix64 finalizer: the benchmark's one hash, used to
// derive every input from (seed, request index) and as the element
// hash of the order-independent multiset check.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// stream is a counter-mode generator over mix: cheap, and seekable by
// construction (a request's inputs depend only on its stream key).
type stream struct{ key, ctr uint64 }

func newStream(parts ...uint64) stream {
	k := uint64(0x243F6A8885A308D3)
	for _, p := range parts {
		k = mix(k ^ p)
	}
	return stream{key: k}
}

func (s *stream) next() uint64 {
	s.ctr++
	return mix(s.key + s.ctr*0x9E3779B97F4A7C15)
}

func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }

// fill writes len(xs) values of 40 significant bits: wide enough that
// inputs rarely repeat, narrow enough that scan and sum never wrap.
func (s *stream) fill(xs []int64) {
	for i := range xs {
		xs[i] = int64(s.next() >> 24)
	}
}

// Stream domains: request keys from different phases never collide.
const (
	domFixed  = 1
	domWarm   = 2
	domSearch = 3
	domGraph  = 4
	domWork   = 5
	domStand  = 6
	domDelta  = 7
	domClass  = 8
)

// inputs holds the graphs and standing records built once per run.
type inputs struct {
	w      *workload
	seed   uint64
	graphs map[int][]*graph.Graph
	edges  map[*graph.Graph][]graph.Edge
	// standing[t][j] is tenant t's record for deltaKernels[j].
	standing [][]*standing
}

var deltaKernels = []*kernel.Kernel{kSort, kSum, kScan, kHistogram, kTopK, kCC}

func buildInputs(w *workload, seed uint64) *inputs {
	in := &inputs{w: w, seed: seed, graphs: map[int][]*graph.Graph{}, edges: map[*graph.Graph][]graph.Edge{}}
	for _, n := range w.nodes {
		for j := 0; j < w.graphsPerSize; j++ {
			s := newStream(seed, domGraph, uint64(n), uint64(j))
			g, es := makeGraph(n, &s)
			in.graphs[n] = append(in.graphs[n], g)
			in.edges[g] = es
		}
	}
	if w.deltaShare > 0 {
		in.standing = make([][]*standing, w.tenants)
		for t := range in.standing {
			for j, k := range deltaKernels {
				in.standing[t] = append(in.standing[t], newStanding(k, seed, uint64(t*len(deltaKernels)+j)))
			}
		}
	}
	return in
}

// makeGraph builds a connected ring of n nodes plus n random chords
// and, every 64th node, a detached pair, so both bfs reachability and
// cc labels are nontrivial.
func makeGraph(n int, s *stream) (*graph.Graph, []graph.Edge) {
	es := make([]graph.Edge, 0, 2*n)
	ring := n - n/64
	for v := 1; v < ring; v++ {
		es = append(es, graph.Edge{U: v - 1, V: v})
	}
	es = append(es, graph.Edge{U: ring - 1, V: 0})
	for i := 0; i < n; i++ {
		es = append(es, graph.Edge{U: s.intn(ring), V: s.intn(ring)})
	}
	for v := ring; v+1 < n; v += 2 {
		es = append(es, graph.Edge{U: v, V: v + 1})
	}
	return graph.MustBuild(n, es, false), es
}

// op is one request as a worker prepares, sends and checks it.
type op struct {
	tenant string
	k      *kernel.Kernel
	a      kernel.Args
	d      *kernel.Delta
	// hash is the multiset hash of a sort input, taken before the
	// reply overwrites it.
	hash uint64
	// edges are a graph input's edges (cc and bfs checks).
	edges []graph.Edge
	// rec is the standing record of a delta op, locked by the worker
	// from prepare until the reply is folded in.
	rec *standing
	// gupsSeed regenerates a gups table for the replay check.
	gupsSeed uint64
}

// buffers are one worker's reusable input and output slices, so the
// client allocates nothing per small request.
type buffers struct {
	xs, dst []int64
	hist    []int
	app     []int64
	edges   []graph.Edge
}

func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

var tenantNames = func() []string {
	out := make([]string, 16)
	for i := range out {
		out[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return out
}()

// pickTenant draws a tenant: 0 with probability hotShare, else one of
// the rest uniformly.
func (w *workload) pickTenant(s *stream) int {
	if w.tenants == 1 || float64(s.next()>>11)/(1<<53) < w.hotShare {
		return 0
	}
	return 1 + s.intn(w.tenants-1)
}

// pickClass returns request i's kernel and size class. Each block of
// consecutive requests as long as the weights' sum times the size
// classes holds every (kernel, size class) as often as the kernel's
// weight, in an order shuffled by the seed: the mix is the same on
// every seed, up to one block, and only the order and the inputs vary
// with it.
func (w *workload) pickClass(seed, dom uint64, i int64) (*kernel.Kernel, int) {
	ns := len(w.sizes)
	n := 0
	for _, x := range w.weights {
		n += x * ns
	}
	var perm [classBlock]int
	for j := range n {
		perm[j] = j
	}
	// Forward Fisher–Yates, stopped at the position asked for.
	s := newStream(seed, dom, domClass, uint64(i)/uint64(n))
	pos := int(uint64(i) % uint64(n))
	for j := 0; j <= pos; j++ {
		r := j + s.intn(n-j)
		perm[j], perm[r] = perm[r], perm[j]
	}
	c := perm[pos]
	r := c / ns
	for ki, x := range w.weights {
		if r < x {
			return w.kernels[ki], c % ns
		}
		r -= x
	}
	panic("unreachable")
}

// classBlock bounds a workload's block length in pickClass.
const classBlock = 64

// prepare fills o with request (dom, i) of the run. Distinct (dom, i)
// give distinct inputs except where the repeat workload's working set
// deliberately repeats them. p, when non-nil, pins the draw (the
// warm-up's coverage).
func (in *inputs) prepare(o *op, b *buffers, dom uint64, i int64, p *pick) {
	w := in.w
	s := newStream(in.seed, dom, uint64(i))
	t := w.pickTenant(&s)
	k, sc := w.pickClass(in.seed, dom, i)
	slot := s.intn(max(1, w.workingSet))
	if p != nil {
		k, sc = p.k, p.size
		if p.tenant >= 0 {
			t, slot = p.tenant, p.slot
		}
	}
	*o = op{tenant: tenantNames[t], k: k}
	if w.deltaShare > 0 && p == nil && float64(s.next()>>11)/(1<<53) < w.deltaShare {
		in.prepareDelta(o, b, t, s.intn(len(deltaKernels)))
		return
	}
	if w.workingSet > 0 {
		// Repeat traffic: the input is one slot of the tenant's working
		// set for this kernel and size class.
		s = newStream(in.seed, domWork, uint64(t), uint64(indexOf(allKernels, k)), uint64(sc), uint64(slot))
	}
	in.fill(o, b, &s, sc)
}

// pick pins a warm-up request's kernel and size class and, when
// tenant >= 0, its tenant and working-set slot.
type pick struct {
	k                  *kernel.Kernel
	size, tenant, slot int
}

// warmups lists the warm-up's requests: warmReps per (kernel, size
// class), then, for repeat traffic, every working-set input once so the
// cache holds the whole working set before timing starts.
func (w *workload) warmups() []pick {
	var out []pick
	for _, k := range w.kernels {
		for sc := range w.sizes {
			for r := 0; r < w.warmReps; r++ {
				out = append(out, pick{k: k, size: sc, tenant: -1})
			}
		}
	}
	for t := 0; t < w.tenants && w.workingSet > 0; t++ {
		for _, k := range w.kernels {
			for sc := range w.sizes {
				for slot := 0; slot < w.workingSet; slot++ {
					out = append(out, pick{k, sc, t, slot})
				}
			}
		}
	}
	return out
}

func indexOf(ks []*kernel.Kernel, k *kernel.Kernel) int {
	for i, x := range ks {
		if x == k {
			return i
		}
	}
	return -1
}

// fill generates a full-call input for o.k at size class sc from s.
func (in *inputs) fill(o *op, b *buffers, s *stream, sc int) {
	n := in.w.sizes[sc]
	a := &o.a
	switch o.k {
	case kBFS, kCC:
		gs := in.graphs[in.w.nodes[sc]]
		a.G = gs[s.intn(len(gs))]
		o.edges = in.edges[a.G]
		if o.k == kBFS {
			a.Src = s.intn(a.G.N())
		}
		return
	case kGUPS:
		// A power-of-two table with 4 updates per entry, seeded so the
		// check can regenerate and replay it.
		b.xs = grow(b.xs, n)
		o.gupsSeed = s.next()
		gupsTable(b.xs, o.gupsSeed)
		a.Xs, a.K, a.Seed = b.xs, 4*n, s.next()
		return
	}
	b.xs = grow(b.xs, n)
	s.fill(b.xs)
	a.Xs = b.xs
	switch o.k {
	case kSort:
		o.hash = multisetHash(b.xs)
	case kSelect:
		a.K = s.intn(n)
	case kHistogram:
		b.hist = grow(b.hist, histBuckets)
		a.Hist = b.hist
	case kScan:
		b.dst = grow(b.dst, n)
		a.Dst = b.dst
	case kTopK:
		b.dst = grow(b.dst, topK)
		a.Dst, a.K = b.dst, topK
	}
}

// gupsTable fills a GUPS table from seed.
func gupsTable(xs []int64, seed uint64) {
	s := stream{key: seed}
	s.fill(xs)
}

// standing is one tenant's standing query: a record whose outputs the
// server keeps current under CallDelta appends. The worker that holds
// mu owns cur until the reply is folded in.
type standing struct {
	mu   sync.Mutex
	k    *kernel.Kernel
	id   uint64
	seed uint64
	// base is the reset state: inputs plus outputs computed by the
	// benchmark's own reference code.
	base, cur kernel.Args
	baseEdges []graph.Edge
	// edges are cc's base edges plus every inserted edge; hash is the
	// multiset hash of sort's current data.
	edges      []graph.Edge
	hash       uint64
	baseHash   uint64
	deltas     int    // since the last reset
	applied    uint64 // ever, keys the next delta's values
	appendedAt int    // len(cur.Xs) before the in-flight delta
}

func newStanding(k *kernel.Kernel, seed, id uint64) *standing {
	r := &standing{k: k, id: id, seed: seed}
	s := newStream(seed, domStand, id)
	a := &r.base
	if k == kCC {
		// A sparse random graph: many components, so inserted edges
		// merge some and the labels change.
		es := make([]graph.Edge, standingBase/2)
		for i := range es {
			es[i] = graph.Edge{U: s.intn(standingBase), V: s.intn(standingBase)}
		}
		a.G = graph.MustBuild(standingBase, es, false)
		a.Dist = ccLabels(standingBase, es)
		r.baseEdges = es
	} else {
		a.Xs = make([]int64, standingBase)
		s.fill(a.Xs)
		switch k {
		case kSort:
			r.baseHash = multisetHash(a.Xs)
			slices.Sort(a.Xs)
		case kSum:
			a.Out = sumOf(a.Xs)
		case kScan:
			a.Dst = prefixSums(nil, a.Xs)
		case kHistogram:
			a.Hist = histogramOf(make([]int, histBuckets), a.Xs)
		case kTopK:
			a.K = topK
			a.Dst = smallest(a.Xs, topK)
		}
	}
	r.reset()
	return r
}

// reset restores the base record (deep copies, since replies grow and
// rewrite cur's slices).
func (r *standing) reset() {
	b := &r.base
	r.cur = kernel.Args{
		Xs:   append([]int64(nil), b.Xs...),
		Dst:  append([]int64(nil), b.Dst...),
		Hist: append([]int(nil), b.Hist...),
		Dist: append([]int32(nil), b.Dist...),
		G:    b.G, K: b.K, Out: b.Out,
	}
	r.edges = append(r.edges[:0], r.baseEdges...)
	r.hash = r.baseHash
	r.deltas = 0
}

// prepareDelta locks tenant t's standing record j and fills o with its
// next append; complete folds the reply in and releases the record.
func (in *inputs) prepareDelta(o *op, b *buffers, t, j int) {
	r := in.standing[t][j]
	r.mu.Lock()
	if r.deltas == standingDeltas {
		r.reset()
	}
	fillDelta(r, o, b)
}

// fillDelta fills o with r's next delta: deltaAppend values, or
// deltaEdges edges for cc, keyed by how many deltas r has taken.
func fillDelta(r *standing, o *op, b *buffers) {
	o.k, o.rec, o.a = r.k, r, r.cur
	s := newStream(r.seed, domDelta, r.id, r.applied)
	d := &kernel.Delta{}
	if r.k == kCC {
		b.edges = b.edges[:0]
		n := r.cur.G.N()
		for e := 0; e < deltaEdges; e++ {
			b.edges = append(b.edges, graph.Edge{U: s.intn(n), V: s.intn(n)})
		}
		d.Edges = b.edges
	} else {
		b.app = grow(b.app, deltaAppend)
		s.fill(b.app)
		d.Append = b.app
	}
	o.d = d
	r.appendedAt = len(r.cur.Xs)
}
