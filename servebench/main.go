// Command servebench is the end-to-end serving benchmark: it launches
// cmd/parserve as a child process on TCP loopback and drives it with
// open-loop, seeded Poisson traffic from one client process, checking
// every reply with its own code. See README.md.
//
//	bash servebench/run.sh --workload small-distinct --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh steady --workload small-repeat --runs 5
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it runs the same server in-process, times every layer
// from outside at the calls into its public functions, and reports the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "servebench steady:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: small-distinct, small-repeat or large-stream")
		seed    = flag.Uint64("seed", 1, "input and schedule seed")
		seconds = flag.Int("seconds", 20, "length of the fixed-rate phase in seconds")
		trace   = flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced in-process run per layer")
		bin     = flag.String("parserve", ".bench_build/parserve", "parserve binary")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("bad --seconds %d: want >= 1", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("bad --trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	var rep report
	if *trace == 1 {
		rep, err = traced(w, *seed, *seconds)
	} else {
		rep, err = untraced(w, *seed, *seconds, *bin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func untraced(w *workload, seed uint64, seconds int, bin string) (report, error) {
	// The client shares the machine with the server it measures. Its
	// live heap is a few MiB, so a higher GC target costs little memory
	// and keeps its collector off the server's processors.
	debug.SetGCPercent(400)
	r, err := runE2E(w, seed, seconds, bin)
	if err != nil {
		return report{}, err
	}
	fmt.Printf("workload %s seed %d: fixed phase %d requests at %.0f/s, latency limit %v\n",
		w.name, seed, r.fixedN, w.rate, w.limit)
	fmt.Printf("setup rounds (s): %s\n", floats(r.setup, "%.4f"))
	fmt.Printf("p99 per window (ms): %s\n", floats(r.windows, "%.3f"))
	// The tail is printed, not reported: on a shared host it follows the
	// host's scheduling more than the program (see README.md).
	fmt.Printf("fixed phase latency (ms): p50=%.4f p90=%.4f p99=%.4f (median over %d windows of %d requests)\n",
		r.p50, r.p90, r.p99, len(r.windows), r.fixedN/len(r.windows))
	var ladder []string
	for _, t := range r.trials {
		mark := "fail"
		if t.pass {
			mark = "ok"
		}
		ladder = append(ladder, fmt.Sprintf("%.0f/s:p99=%.2fms,x%.3f,%s", t.rate, t.p99, t.achieved, mark))
	}
	fmt.Printf("rate search: %s\n", strings.Join(ladder, " "))
	lagLimit := float64(w.limit) / 1e3 * lagShare
	flag := "ok"
	if r.sendLagP99 > lagLimit {
		flag = fmt.Sprintf("FLAGGED: generator fell behind by more than %.0f%% of the latency limit", 100*lagShare)
	}
	fmt.Printf("generator: send_lag_p50=%.1fus send_lag_p99=%.1fus (limit %.0fus) client_cpu=%.3fs — %s\n",
		r.sendLagP50, r.sendLagP99, lagLimit, r.clientCPU.Seconds(), flag)
	stealFlag := "ok"
	if r.steal > stealShareLimit {
		stealFlag = fmt.Sprintf("FLAGGED: the host took more than %.0f%% of the machine; latency figures reflect it", 100*stealShareLimit)
	}
	fmt.Printf("machine: steal share during the fixed phase %.1f%% — %s\n", 100*r.steal, stealFlag)
	if r.firstBad != nil {
		fmt.Printf("first failure: %v\n", r.firstBad)
	}
	fmt.Printf("operations: attempted=%d failed=%d bad_replies=%d\n", r.attempted, r.failed, r.bad)
	return report{
		Correct:   r.bad == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(r.setup), "s"},
			"p50_ms":         {r.p50, "ms"},
			"max_rate_rps":   {r.maxRate, "1/s"},
			"cpu_us_per_req": {r.cpuPerReq, "us"},
			"rss_mb":         {r.rssMB, "MiB"},
		},
	}, nil
}

// lagShare is the share of the latency limit by which the generator may
// fall behind its schedule (send-lag p99) before a run is flagged: past
// it, a starved client and not the server could be what the latency
// shows.
const lagShare = 0.1

// stealShareLimit is the share of machine time the hypervisor may take
// during the fixed phase before a run is flagged. On a shared host,
// latency rises steeply with it (see README.md).
const stealShareLimit = 0.02

func floats(xs []float64, format string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(s, " ")
}
