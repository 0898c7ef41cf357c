package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

// setupRounds is how many times a run launches parserve and warms it
// up; setup_s is their median. The last launch serves the timed phases.
const setupRounds = 5

// server is one parserve child process.
type server struct {
	cmd   *exec.Cmd
	addr  string
	lines chan string // stdout after the listening line; closed at EOF
	ended bool
}

// launch starts parserve on a loopback port of the kernel's choosing
// and waits for its listening line.
func launch(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(runtime.NumCPU()), "-cache", "on")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, lines: make(chan string, 64)} // a drain prints a handful of lines
	go func() {
		defer close(s.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			s.lines <- sc.Text()
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case line, ok := <-s.lines:
		const marker = "listening on tcp "
		if i := strings.Index(line, marker); ok && i >= 0 {
			s.addr = strings.Fields(line[i+len(marker):])[0]
			return s, nil
		}
		s.kill()
		return nil, fmt.Errorf("parserve: unexpected first line %q", line)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("parserve: no listening line within 30s")
	}
}

// kill stops the process if it is still running and waits for it.
func (s *server) kill() {
	if s.ended {
		return
	}
	s.ended = true
	s.cmd.Process.Kill()
	for range s.lines {
	}
	s.cmd.Wait()
}

// drainStats are parserve's final wire: and serve: lines.
type drainStats struct {
	conns, requests, responses, chunks, errors             int64
	accepted, completed, rejected, dlrej, expired, batches int64
}

// drain sends SIGTERM, reads the final stats and waits for the exit.
func (s *server) drain() (drainStats, error) {
	var d drainStats
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return d, fmt.Errorf("parserve: SIGTERM: %w", err)
	}
	var sawWire, sawServe bool
	timeout := time.After(60 * time.Second)
	for done := false; !done; {
		select {
		case line, ok := <-s.lines:
			if !ok {
				done = true
				break
			}
			if strings.HasPrefix(line, "wire: ") {
				_, err := fmt.Sscanf(line, "wire: conns=%d requests=%d responses=%d chunks=%d errors=%d",
					&d.conns, &d.requests, &d.responses, &d.chunks, &d.errors)
				sawWire = err == nil
			}
			if strings.HasPrefix(line, "serve: ") {
				_, err := fmt.Sscanf(line, "serve: accepted=%d completed=%d rejected=%d dlrej=%d expired=%d batches=%d",
					&d.accepted, &d.completed, &d.rejected, &d.dlrej, &d.expired, &d.batches)
				sawServe = err == nil
			}
		case <-timeout:
			s.kill()
			return d, fmt.Errorf("parserve: no exit within 60s of SIGTERM")
		}
	}
	s.ended = true
	if err := s.cmd.Wait(); err != nil {
		return d, fmt.Errorf("parserve: exit: %w", err)
	}
	if !sawWire || !sawServe {
		return d, fmt.Errorf("parserve: final stats lines missing")
	}
	return d, nil
}

// verify is the drain accounting: every admitted request finished,
// every frame was answered, the client's attempts all arrived, and
// nothing was refused or failed.
func (d drainStats) verify(attempts int64) error {
	switch {
	case d.accepted != d.completed+d.expired:
		return fmt.Errorf("drain: accepted %d != completed %d + expired %d", d.accepted, d.completed, d.expired)
	case d.requests != d.responses || d.requests != attempts:
		return fmt.Errorf("drain: requests %d, responses %d, client attempts %d", d.requests, d.responses, attempts)
	case d.errors != 0 || d.rejected != 0 || d.dlrej != 0 || d.expired != 0:
		return fmt.Errorf("drain: errors=%d rejected=%d dlrej=%d expired=%d, want 0",
			d.errors, d.rejected, d.dlrej, d.expired)
	}
	return nil
}

// procCPU returns a process's user+system CPU time from
// /proc/<pid>/stat (clock ticks of 1/100 s, the Linux USER_HZ).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime are fields 14 and 15.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// machineTicks returns the machine's steal and total CPU ticks from the
// first line of /proc/stat. Steal is time the hypervisor ran something
// else while this machine's processors had work: a share of it over a
// phase says how much the host, not the program, slowed that phase.
func machineTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of machine time stolen between two
// machineTicks readings.
func stealShare(s0, t0, s1, t1 int64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// result is one untraced run's figures.
type result struct {
	attempted, failed, bad int
	firstBad               error
	setup                  []float64 // seconds, one per round
	p50, p90, p99          float64   // ms
	windows                []float64 // per-window p99, ms
	maxRate                float64
	trials                 []trial
	cpuPerReq              float64 // µs
	rssMB                  float64
	sendLagP50, sendLagP99 float64 // µs
	clientCPU              time.Duration
	steal                  float64 // share of machine time, fixed phase
	fixedN                 int
}

type trial struct {
	rate, p99, achieved float64
	pass                bool
}

func (r *result) add(o outcome) {
	r.attempted += len(o.samples)
	r.failed += o.failed
	r.bad += o.bad
	if r.firstBad == nil {
		r.firstBad = o.firstBad
	}
}

// runE2E is the untraced run: setupRounds launches with warm-up, then
// on the last server the fixed-rate phase and the rate search, each
// server drained and its accounting verified.
func runE2E(w *workload, seed uint64, seconds int, bin string) (*result, error) {
	in := buildInputs(w, seed)
	res := &result{}
	nw := runtime.NumCPU()
	warm := w.warmups()
	var srv *server
	var ws []*worker
	var attempts int64
	defer func() {
		if ws != nil {
			closeWorkers(ws)
		}
		if srv != nil {
			srv.kill()
		}
	}()
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		var err error
		if srv, err = launch(bin); err != nil {
			return nil, err
		}
		if ws, err = dialWorkers(srv.addr, nw); err != nil {
			return nil, err
		}
		o := closedLoop(ws, in, warm, 0)
		res.setup = append(res.setup, time.Since(t0).Seconds())
		res.add(o)
		attempts = int64(len(o.samples))
		if round == setupRounds-1 {
			break
		}
		if err := finishServer(srv, ws, attempts); err != nil {
			return nil, err
		}
		srv, ws = nil, nil
	}

	// Fixed-rate phase.
	n := w.fixedN(seconds)
	sched := loadgen.Poisson(n, w.rate, seed)
	cpu0, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	st0, tt0 := machineTicks()
	o := openLoop(ws, in, domFixed, int64(len(warm)), sched)
	cpu1, err := procCPU(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res.clientCPU = selfCPU() - self0
	st1, tt1 := machineTicks()
	res.steal = stealShare(st0, tt0, st1, tt1)
	if res.rssMB, err = procHWM(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	res.add(o)
	attempts += int64(n)
	res.fixedN = n
	lat := o.corrected()
	res.p50, res.p90 = pct(lat, 50), pct(lat, 90)
	res.windows = o.windowP99(max(1, n/trialWindow))
	res.p99 = median(res.windows)
	res.cpuPerReq = float64(cpu1-cpu0) / 1e3 / float64(n-o.failed)
	res.sendLagP50, res.sendLagP99 = pct(o.sendLag(), 50), pct(o.sendLag(), 99)

	// Rate search.
	base := int64(len(warm) + n)
	res.maxRate, res.trials = searchRate(w, func(rate float64, k int, id int64) (outcome, loadgen.Schedule) {
		n := max(w.searchMin, int(rate*w.searchSec))
		sched := loadgen.Poisson(n, rate, seed^uint64(k+1)*0x9E3779B97F4A7C15)
		return openLoop(ws, in, domSearch, base+id, sched), sched
	}, func(o outcome) {
		res.add(o)
		attempts += int64(len(o.samples))
	})
	err = finishServer(srv, ws, attempts)
	srv, ws = nil, nil
	return res, err
}

// finishServer closes the client's connections, drains the server and
// verifies its accounting against the client's attempts.
func finishServer(srv *server, ws []*worker, attempts int64) error {
	closeWorkers(ws)
	d, err := srv.drain()
	if err != nil {
		return err
	}
	return d.verify(attempts)
}

// trialWindow is the request count of one p99 window in a rate-search
// trial: enough that ten samples lie beyond its p99.
const trialWindow = 1000

// searchRate finds the highest offered rate at which corrected p99 (the
// median over a trial's windows of trialWindow requests, as in the fixed
// phase) stays under the workload's limit and the achieved rate keeps
// up (within 5%) with the offered one. It walks a geometric ladder from
// searchLo by searchStep, up while rungs pass or down until one does,
// then bisects between the passing and the failing rung three times. A
// rung fails only when two trials at its rate both miss: one stall of
// the machine cannot end the search. run executes one trial; seen
// records it.
func searchRate(w *workload, run func(rate float64, k int, id int64) (outcome, loadgen.Schedule), seen func(outcome)) (float64, []trial) {
	var trials []trial
	var id int64
	once := func(rate float64) bool {
		o, sched := run(rate, len(trials), id)
		id += int64(len(o.samples))
		seen(o)
		t := trial{rate: rate, p99: median(o.windowP99(max(1, len(o.samples)/trialWindow))), achieved: o.achievedRatio(sched)}
		t.pass = o.failed == 0 && t.p99 <= float64(w.limit)/1e6 && t.achieved >= 0.95
		trials = append(trials, t)
		return t.pass
	}
	try := func(rate float64) bool { return once(rate) || once(rate) }
	var lo, hi float64
	if rate := w.searchLo; try(rate) {
		for lo = rate; len(trials) < maxTrials && try(lo*w.searchStep); lo *= w.searchStep {
		}
		hi = lo * w.searchStep
	} else {
		for hi = rate; len(trials) < maxTrials && !try(hi/w.searchStep); hi /= w.searchStep {
		}
		lo = hi / w.searchStep
	}
	if len(trials) >= maxTrials {
		return 0, trials // no rung passed, or none failed: no answer
	}
	for k := 0; k < 3; k++ {
		mid := (lo + hi) / 2
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, trials
}

// maxTrials bounds a rate search's ladder walk.
const maxTrials = 40
