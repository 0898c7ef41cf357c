package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/loadgen"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/rescache"
	"repro/internal/scratch"
	"repro/internal/serve"
	"repro/internal/wire"
)

// tspan is one recorded span: a layer's call for one request.
type tspan struct {
	name       string
	start, end time.Time
	id         int64 // request id (the phase's request index)
	parent     string
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []tspan
	// live maps an argument record's data pointer to the request id
	// whose serve call is in flight with it, so a kernel span can name
	// its request.
	live map[uintptr]int64
}

func (t *tracer) add(s tspan) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// argKey identifies a request's argument record by its input's backing
// array: the server moves the record by value, so the pointer survives
// from the listener's call into the kernel.
func argKey(a *kernel.Args) uintptr {
	if a.G != nil {
		return uintptr(unsafe.Pointer(a.G))
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(a.Xs)))
}

// timedBackend sits between the listener and the server and records a
// serve span around each call. Kernels are swapped for timed copies of
// their descriptors, whose entry points record kernel spans.
type timedBackend struct {
	srv   *serve.Server
	tr    *tracer
	timed map[*kernel.Kernel]*kernel.Kernel
}

func newTimedBackend(srv *serve.Server, tr *tracer) *timedBackend {
	b := &timedBackend{srv: srv, tr: tr, timed: map[*kernel.Kernel]*kernel.Kernel{}}
	for _, k := range kernel.All() {
		b.timed[k] = tr.timedKernel(k)
	}
	return b
}

// timedKernel copies k's descriptor with Run, Stream and Delta wrapped
// to record a span each. Name, cache spec and validation are k's, so
// the server and the cache treat the copy exactly as k.
func (t *tracer) timedKernel(k *kernel.Kernel) *kernel.Kernel {
	cp := *k
	wrap := func(name string, a *kernel.Args) func() {
		t.mu.Lock()
		id, ok := t.live[argKey(a)]
		t.mu.Unlock()
		t0 := time.Now()
		return func() {
			if ok {
				t.add(tspan{name: name, start: t0, end: time.Now(), id: id, parent: "serve.call"})
			}
		}
	}
	cp.Variants = make([]kernel.Variant, len(k.Variants))
	for i, v := range k.Variants {
		run := v.Run
		cp.Variants[i] = kernel.Variant{Name: v.Name, Run: func(a *kernel.Args, o par.Options) {
			defer wrap("kernel.run", a)()
			run(a, o)
		}}
	}
	if stream := k.Stream; stream != nil {
		cp.Stream = func(a *kernel.Args, o par.Options) error {
			defer wrap("kernel.stream", a)()
			return stream(a, o)
		}
	}
	if delta := k.Delta; delta != nil {
		cp.Delta = func(a *kernel.Args, d *kernel.Delta, o par.Options) error {
			defer wrap("kernel.delta", a)()
			return delta(a, d, o)
		}
	}
	return &cp
}

func (b *timedBackend) begin(a *kernel.Args, budget time.Duration) (int64, time.Time) {
	id := int64(budget - budgetBase)
	b.tr.mu.Lock()
	b.tr.live[argKey(a)] = id
	b.tr.mu.Unlock()
	return id, time.Now()
}

func (b *timedBackend) end(key uintptr, id int64, t0 time.Time) {
	t1 := time.Now()
	b.tr.mu.Lock()
	delete(b.tr.live, key)
	b.tr.mu.Unlock()
	b.tr.add(tspan{name: "serve.call", start: t0, end: t1, id: id, parent: "client.call"})
}

func (b *timedBackend) CallBudget(tenant string, k *kernel.Kernel, a *kernel.Args, budget time.Duration) error {
	key := argKey(a)
	id, t0 := b.begin(a, budget)
	err := b.srv.CallBudget(tenant, b.timed[k], a, budget)
	b.end(key, id, t0)
	return err
}

func (b *timedBackend) CallDeltaBudget(tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) error {
	key := argKey(a)
	id, t0 := b.begin(a, budget)
	err := b.srv.CallDeltaBudget(tenant, b.timed[k], a, d, budget)
	b.end(key, id, t0)
	return err
}

// traced is the per-layer run: the same server as parserve's, built
// in-process from the same constructors, behind the timing backend,
// driven by the same client over loopback TCP at the fixed phase's
// rate. Layer counters are read as deltas over the phase; kernels,
// pipeline and codec are then timed on the workload's own records.
func traced(w *workload, seed uint64, seconds int) (report, error) {
	in := buildInputs(w, seed)
	nw := runtime.NumCPU()
	cache := rescache.New(rescache.Config{})
	srv := serve.New(serve.Config{Workers: nw, Cache: cache})
	tr := &tracer{live: map[uintptr]int64{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return report{}, err
	}
	l := wire.Serve(ln, newTimedBackend(srv, tr), wire.Config{})
	ws, err := dialWorkers(l.Addr().String(), nw)
	if err != nil {
		l.Close()
		srv.Close()
		return report{}, err
	}
	warm := w.warmups()
	wo := closedLoop(ws, in, warm, 0)
	tr.mu.Lock()
	tr.spans = tr.spans[:0]
	tr.mu.Unlock()

	// The traced phase, with every layer's counters read around it.
	n := w.fixedN(seconds)
	base := int64(len(warm))
	sched := loadgen.Poisson(n, w.rate, seed)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st0, cs0, ls0, sc0 := srv.Stats(), cache.Stats(), l.Stats(), scratch.Default().Stats()
	steals0 := exec.Default().Steals()
	var moved int64
	for _, wk := range ws {
		moved -= wk.conn.read.Load() + wk.conn.written.Load()
	}
	occ := sampleOccupancy()
	o := openLoop(ws, in, domFixed, base, sched)
	occMean := occ()
	steals1 := exec.Default().Steals()
	st1, cs1, ls1, sc1 := srv.Stats(), cache.Stats(), l.Stats(), scratch.Default().Stats()
	runtime.ReadMemStats(&m1)
	for _, wk := range ws {
		moved += wk.conn.read.Load() + wk.conn.written.Load()
	}

	// Drain, then check the in-process accounting as the untraced run
	// checks parserve's.
	closeWorkers(ws)
	l.Close()
	srv.Close()
	lsEnd, stEnd := l.Stats(), srv.Stats()
	attempts := int64(len(wo.samples) + len(o.samples))
	d := drainStats{
		requests: lsEnd.Requests, responses: lsEnd.Responses, errors: lsEnd.Errors,
		accepted: stEnd.Accepted, completed: stEnd.Completed, rejected: stEnd.Rejected,
		dlrej: stEnd.DeadlineRejected, expired: stEnd.Expired,
	}
	if err := d.verify(attempts); err != nil {
		return report{}, err
	}
	for _, t := range tenantNames {
		cache.Bump(t) // empties the cache, returning its buffers to scratch
	}

	// Join spans per request.
	client := make([]time.Duration, n)
	for i, c := range o.calls {
		client[i] = c.end - c.start
	}
	serveD := make([]time.Duration, n)
	kernD := make([]time.Duration, n)
	for _, s := range tr.spans {
		i := s.id - base
		if i < 0 || i >= int64(n) {
			continue
		}
		if s.name == "serve.call" {
			serveD[i] = s.end.Sub(s.start)
		} else {
			kernD[i] += s.end.Sub(s.start)
		}
	}
	var rtt, wself, call, sself []float64
	for i := 0; i < n; i++ {
		if o.samples[i].Err != nil || serveD[i] == 0 {
			continue
		}
		rtt = append(rtt, us(client[i]))
		wself = append(wself, us(client[i]-serveD[i]))
		call = append(call, us(serveD[i]))
		sself = append(sself, us(serveD[i]-kernD[i]))
	}

	m := map[string]metric{
		"wire.rtt_p50_us":         {pct(rtt, 50), "us"},
		"wire.self_p50_us":        {pct(wself, 50), "us"},
		"wire.codec_ns_per_req":   {codecNanos(in, base, n), "ns"},
		"wire.bytes_per_req":      {float64(moved) / float64(n), "B"},
		"wire.chunks_per_resp":    {ratio(ls1.Chunks-ls0.Chunks, ls1.Responses-ls0.Responses), "count"},
		"serve.call_p50_us":       {pct(call, 50), "us"},
		"serve.call_p99_us":       {pct(call, 99), "us"},
		"serve.self_p50_us":       {pct(sself, 50), "us"},
		"serve.reqs_per_batch":    {ratio(st1.BatchedRequests-st0.BatchedRequests, st1.Batches-st0.Batches), "count"},
		"serve.serial_batches":    {float64(st1.SerialBatches - st0.SerialBatches), "count"},
		"serve.degraded":          {float64(st1.Degraded - st0.Degraded), "count"},
		"serve.shed":              {float64(st1.Shed - st0.Shed), "count"},
		"serve.pipelined":         {float64(st1.Pipelined - st0.Pipelined), "count"},
		"cache.hit_ratio":         {ratio(int64(cs1.Hits-cs0.Hits), int64(cs1.Hits-cs0.Hits+cs1.Misses-cs0.Misses)), "ratio"},
		"cache.inserts":           {float64(cs1.Inserts - cs0.Inserts), "count"},
		"cache.evictions":         {float64(cs1.Evictions - cs0.Evictions), "count"},
		"cache.bytes":             {float64(cs1.Bytes), "B"},
		"exec.steals":             {float64(steals1 - steals0), "count"},
		"exec.occupancy":          {occMean, "ratio"},
		"scratch.hit_ratio":       {ratio(sc1.Hits-sc0.Hits, sc1.Gets-sc0.Gets), "ratio"},
		"scratch.bytes_pooled":    {float64(sc1.BytesPooled), "B"},
		"go.allocs_per_req":       {float64(m1.Mallocs-m0.Mallocs) / float64(n), "count"},
		"go.gc_cycles":            {float64(m1.NumGC - m0.NumGC), "count"},
		"loadgen.send_lag_p99_us": {pct(o.sendLag(), 99), "us"},
	}
	if err := timeKernels(in, base, n, m); err != nil {
		return report{}, err
	}
	m["scratch.bytes_live_end"] = metric{float64(scratch.Default().Stats().BytesLive), "B"}

	hits := cs1.Hits - cs0.Hits
	fmt.Printf("cache: %d of %d requests probed the cache, %d hit (%.1f%% of all requests)\n",
		hits+cs1.Misses-cs0.Misses, n, hits, 100*float64(hits)/float64(n))
	fmt.Printf("traced %s seed %d: %d requests at %.0f/s; traced p50_ms=%.4f p99_ms=%.4f (tracing overhead: compare untraced p50_ms)\n",
		w.name, seed, n, w.rate, pct(o.corrected(), 50), median(o.windowP99(max(1, n/trialWindow))))
	if path, err := writeSpans(tr, o, w.name, seed, base); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: spans:", err)
	} else {
		fmt.Printf("spans: %s\n", path)
	}
	bad := wo.bad + o.bad
	if wo.firstBad != nil || o.firstBad != nil {
		fmt.Printf("first failure: %v %v\n", wo.firstBad, o.firstBad)
	}
	return report{
		Correct:   bad == 0,
		Attempted: int(attempts),
		Failed:    wo.failed + o.failed,
		Metrics:   m,
	}, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sampleOccupancy samples the shared executor's occupancy every
// millisecond until the returned function is called, which returns the
// mean.
func sampleOccupancy() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		var sum float64
		var k int
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sum += exec.Default().Occupancy()
				k++
			case <-stop:
				if k > 0 {
					sum /= float64(k)
				}
				done <- sum
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// phaseOps regenerates up to limit requests of the phase per kernel,
// full calls and deltas apart, in schedule order.
func phaseOps(in *inputs, base int64, n int, limit int, fn func(o *op)) {
	seen := map[string]int{}
	var b buffers
	var o op
	for i := 0; i < n; i++ {
		in.prepare(&o, &b, domFixed, base+int64(i), nil)
		key := o.k.Name
		if o.d != nil {
			key += "/delta"
		}
		if seen[key] < limit {
			seen[key]++
			fn(&o)
		}
		if o.rec != nil {
			o.rec.mu.Unlock()
			o.rec = nil
		}
	}
}

// codecNanos times the four codec calls a round trip makes on the
// phase's own records (8 per kernel and kind): encode and decode the
// request, encode and decode a response of the request's shape.
func codecNanos(in *inputs, base int64, n int) float64 {
	var reqs []op
	phaseOps(in, base, n, 8, func(o *op) {
		cp := *o
		cp.a = cloneArgs(&o.a)
		if o.d != nil {
			d := kernel.Delta{Append: append([]int64(nil), o.d.Append...), Edges: append([]graph.Edge(nil), o.d.Edges...)}
			cp.d = &d
		}
		cp.rec = nil
		reqs = append(reqs, cp)
	})
	if len(reqs) == 0 {
		return 0
	}
	dec := wire.NewDecoder()
	var wbuf, rbuf []byte
	var back kernel.Args
	var rounds []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := range reqs {
			o := &reqs[i]
			var err error
			if wbuf, err = wire.AppendRequest(wbuf[:0], uint64(i), o.tenant, o.k, &o.a, o.d, budgetBase); err != nil {
				return 0
			}
			req, err := dec.DecodeRequest(wbuf[4:])
			if err != nil {
				return 0
			}
			rbuf = wire.AppendResponse(rbuf[:0], req.ID, req.Kernel, &req.Args)
			back = cloneArgs(&o.a)
			if _, err := wire.DecodeResponseInto(rbuf[4:], &back); err != nil {
				return 0
			}
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(len(reqs)))
	}
	return median(rounds)
}

func cloneArgs(a *kernel.Args) kernel.Args {
	c := *a
	c.Xs = append([]int64(nil), a.Xs...)
	c.Dst = append([]int64(nil), a.Dst...)
	c.Hist = append([]int(nil), a.Hist...)
	c.Dist = append([]int32(nil), a.Dist...)
	withBucket(&c)
	return c
}

// withBucket installs the histogram bucket function the wire protocol
// installs on the server side, so records run locally as they run there.
func withBucket(a *kernel.Args) {
	if len(a.Hist) > 0 {
		a.Bucket = wire.CanonicalBucket(len(a.Hist))
	}
}

// timeKernels adds kernel.<name>.run_us (Kernel.Run at Procs 1 on
// copies of the phase's inputs), kernel.<name>.delta_us (RunDelta
// through a standing record's cycle) and pipeline.<name>.stream_ms
// (Kernel.Stream on the workload's largest inputs). Kernels the
// workload does not send are timed on generated inputs of its smallest
// size class.
func timeKernels(in *inputs, base int64, n int, m map[string]metric) error {
	runs := map[*kernel.Kernel][]float64{}
	phaseOps(in, base, n, 8, func(o *op) {
		if o.d != nil {
			return
		}
		a := cloneArgs(&o.a)
		t0 := time.Now()
		o.k.Run(&a, par.Options{Procs: 1})
		runs[o.k] = append(runs[o.k], us(time.Since(t0)))
	})
	for _, k := range allKernels {
		if len(runs[k]) == 0 {
			o := op{k: k}
			var b buffers
			in.fill(&o, &b, &stream{key: uint64(indexOf(allKernels, k))}, 0)
			for r := 0; r < 4; r++ {
				a := cloneArgs(&o.a)
				t0 := time.Now()
				k.Run(&a, par.Options{Procs: 1})
				runs[k] = append(runs[k], us(time.Since(t0)))
			}
		}
		m["kernel."+k.Name+".run_us"] = metric{median(runs[k]), "us"}
	}
	for j, k := range deltaKernels {
		r := newStanding(k, in.seed, uint64(1000+j))
		var b buffers
		var ts []float64
		for step := 0; step < standingDeltas; step++ {
			var o op
			fillDelta(r, &o, &b)
			withBucket(&o.a)
			t0 := time.Now()
			err := k.RunDelta(&o.a, o.d, par.Options{Procs: 1})
			ts = append(ts, us(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("%s delta: %w", k.Name, err)
			}
			r.cur = o.a // RunDelta folded the append in, as the server does
			r.applied++
		}
		m["kernel."+k.Name+".delta_us"] = metric{median(ts), "us"}
	}
	big := len(in.w.sizes) - 1
	for _, k := range []*kernel.Kernel{kSort, kScan} {
		o := op{k: k}
		var b buffers
		in.fill(&o, &b, &stream{key: 7 + uint64(indexOf(allKernels, k))}, big)
		var ts []float64
		for r := 0; r < 3; r++ {
			a := cloneArgs(&o.a)
			t0 := time.Now()
			if err := k.Stream(&a, par.Options{SerialCutoff: pipeline.DefaultChunkSize}); err != nil {
				return fmt.Errorf("%s stream: %w", k.Name, err)
			}
			ts = append(ts, float64(time.Since(t0))/1e6)
		}
		m["pipeline."+k.Name+".stream_ms"] = metric{median(ts), "ms"}
	}
	return nil
}

// writeSpans writes every span of the phase, one per line (name, start
// and end in µs from the phase's start, parent, request id), next to
// the build outputs.
func writeSpans(tr *tracer, o outcome, name string, seed uint64, base int64) (string, error) {
	path := filepath.Join(".bench_build", fmt.Sprintf("spans_%s_%d.tsv", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name\tstart_us\tend_us\tparent\tid")
	for i, c := range o.calls {
		fmt.Fprintf(bw, "client.call\t%.1f\t%.1f\t-\t%d\n", us(c.start), us(c.end), base+int64(i))
	}
	for _, s := range tr.spans {
		fmt.Fprintf(bw, "%s\t%.1f\t%.1f\t%s\t%d\n", s.name, us(s.start.Sub(o.start)), us(s.end.Sub(o.start)), s.parent, s.id)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
