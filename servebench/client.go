package main

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/loadgen"
	"repro/internal/wire"
)

// worker is one client connection with its reusable buffers. A
// wire.Client carries one request at a time, so the client's
// concurrency is its worker count.
type worker struct {
	cl   *wire.Client
	conn *countConn
	buf  buffers
	o    op
}

// countConn counts the bytes a connection moves, for the traced run's
// bytes-per-request figure.
type countConn struct {
	net.Conn
	read, written atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

func dialWorkers(addr string, n int) ([]*worker, error) {
	ws := make([]*worker, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			closeWorkers(ws)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		cc := &countConn{Conn: c}
		ws = append(ws, &worker{cl: wire.NewClient(cc), conn: cc})
	}
	return ws, nil
}

func closeWorkers(ws []*worker) {
	for _, w := range ws {
		w.cl.Close()
	}
}

// call sends w.o with request id id riding in its deadline budget.
func (w *worker) call(id int64) error {
	o := &w.o
	budget := budgetBase + time.Duration(id)
	if o.d != nil {
		return w.cl.CallDeltaBudget(o.tenant, o.k, &o.a, o.d, budget)
	}
	return w.cl.CallBudget(o.tenant, o.k, &o.a, budget)
}

// span is one client call, as offsets from its phase's start.
type span struct {
	start, end time.Duration
}

// outcome is one phase's record: a loadgen sample per request (Sent
// is when the generator queued it, Done when its reply was decoded),
// the call span of each, and the failures.
type outcome struct {
	samples []loadgen.Sample
	calls   []span
	// failed counts calls that returned an error; bad counts replies
	// that failed their check, firstBad the first such error.
	failed, bad int
	firstBad    error
	start       time.Time
	wall        time.Duration
}

func (o *outcome) note(i int, callErr, checkErr error) {
	if callErr != nil {
		o.failed++
		o.samples[i].Err = callErr
		if o.firstBad == nil {
			o.firstBad = callErr
		}
	}
	if checkErr != nil {
		o.bad++
		if o.firstBad == nil {
			o.firstBad = checkErr
		}
	}
}

// openLoop fires sched at the workers. Arrivals enter one FIFO at
// their scheduled instants whatever the server is doing; each worker
// takes the next arrival, prepares its input, calls, takes the
// completion time and only then checks the reply. Request i of the
// phase is input (dom, base+i) and carries id base+i.
func openLoop(ws []*worker, in *inputs, dom uint64, base int64, sched loadgen.Schedule) outcome {
	n := sched.Len()
	out := outcome{samples: make([]loadgen.Sample, n), calls: make([]span, n)}
	queue := make(chan int, n) // one slot per arrival: the generator never blocks
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	out.start = start
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				in.prepare(&w.o, &w.buf, dom, base+int64(i), nil)
				t0 := time.Since(start)
				err := w.call(base + int64(i))
				done := time.Since(start)
				out.samples[i].Done = done
				out.calls[i] = span{t0, done}
				cerr := w.o.complete(err)
				mu.Lock()
				out.note(i, err, cerr)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		if d := sched.Offsets[i] - time.Since(start); d > 0 {
			sleep(d)
		}
		out.samples[i].Intended = sched.Offsets[i]
		out.samples[i].Sent = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// sleep waits d with the kernel's timer precision. time.Sleep on an
// otherwise idle Go runtime wakes through the network poller, whose
// timeout has millisecond granularity; that would make the generator
// up to a millisecond late and charge the lag to the server.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// closedLoop sends picks as fast as the workers complete them; it is
// the warm-up. Request i is input (domWarm, i) and carries id base+i.
func closedLoop(ws []*worker, in *inputs, picks []pick, base int64) outcome {
	out := outcome{samples: make([]loadgen.Sample, len(picks))}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(picks) {
					return
				}
				in.prepare(&w.o, &w.buf, domWarm, int64(i), &picks[i])
				err := w.call(base + int64(i))
				cerr := w.o.complete(err)
				mu.Lock()
				out.note(i, err, cerr)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// corrected returns the corrected latencies of successful samples in
// milliseconds.
func (o *outcome) corrected() []float64 {
	out := make([]float64, 0, len(o.samples))
	for _, s := range o.samples {
		if s.Err == nil {
			out = append(out, float64(s.Corrected())/1e6)
		}
	}
	return out
}

// sendLag returns each sample's Sent − Intended in microseconds.
func (o *outcome) sendLag() []float64 {
	out := make([]float64, len(o.samples))
	for i, s := range o.samples {
		out[i] = float64(s.Sent-s.Intended) / 1e3
	}
	return out
}

// achievedRatio is the span of the schedule's arrivals over the span of
// the completions: the achieved rate as a share of the offered one. It
// is near 1 while the server keeps up and falls below 1 when the backlog
// grows; measuring between first and last completion keeps the last
// request's own latency out of it.
func (o *outcome) achievedRatio(sched loadgen.Schedule) float64 {
	first, last := o.wall, time.Duration(0)
	for _, s := range o.samples {
		first, last = min(first, s.Done), max(last, s.Done)
	}
	if last <= first || o.failed > 0 {
		return 0
	}
	return float64(sched.Duration()) / float64(last-first)
}

// windowP99 splits the samples, in schedule order, into k windows of
// equal count and returns each window's corrected p99: a stall hits one
// window, and the median over windows does not move with it.
func (o *outcome) windowP99(k int) []float64 {
	per := len(o.samples) / k
	out := make([]float64, 0, k)
	for j := 0; j < k; j++ {
		w := outcome{samples: o.samples[j*per : (j+1)*per]}
		out = append(out, pct(w.corrected(), 99))
	}
	return out
}

// pct is the nearest-rank percentile of xs (0 for none); xs is not
// modified.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(r-1, 0), len(s)-1)]
}

func median(xs []float64) float64 { return pct(xs, 50) }
