package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady runs one workload repeatedly, each run with the next seed, and
// prints per end-to-end metric the median, the quartiles and the spread
// (interquartile distance over the median) against the metric's bound
// in BENCHMARK.json.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	seed0 := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 15, "--seconds of each run")
	bench := fs.String("bench", "BENCHMARK.json", "file holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, err := lookupWorkload(*name); err != nil {
		return err
	}
	if *runs < 2 {
		return fmt.Errorf("bad --runs %d: want >= 2", *runs)
	}
	bounds, err := readBounds(*bench)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var shares []float64
	for i := 0; i < *runs; i++ {
		seed := *seed0 + uint64(i)
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines {
			if strings.HasPrefix(l, "machine: ") || strings.HasPrefix(l, "generator: ") || strings.HasPrefix(l, "fixed phase latency") {
				fmt.Printf("seed %d %s\n", seed, l)
			}
		}
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", seed, err)
		}
		if !rep.Correct {
			return fmt.Errorf("run with seed %d: incorrect replies", seed)
		}
		shares = append(shares, float64(rep.Failed)/float64(rep.Attempted))
		var got []string
		for k, m := range rep.Metrics {
			values[k] = append(values[k], m.Value)
			got = append(got, fmt.Sprintf("%s=%.4g", k, m.Value))
		}
		sort.Strings(got)
		fmt.Printf("seed %d: %s\n", seed, strings.Join(got, " "))
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-16s %12s %12s %12s %8s %7s  verdict\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, k := range names {
		q := quartiles(values[k])
		spread := (q[2] - q[0]) / q[1]
		b, ok := bounds[k]
		verdict := "no bound"
		switch {
		case !ok:
		case spread <= b/3:
			verdict = "steady (under a third of the bound)"
		case spread <= b:
			verdict = "within the bound"
		default:
			verdict = "TOO NOISY"
		}
		fmt.Printf("%-16s %12.5g %12.5g %12.5g %8.4f %7.3f  %s\n", k, q[0], q[1], q[2], spread, b, verdict)
	}
	fmt.Printf("failed share per run: %v\n", shares)
	return nil
}

// quartiles returns q1, the median and q3 of xs: q1 and q3 as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), the
// median as statistics.median.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	med := d[ld/2]
	if ld%2 == 0 {
		med = (d[ld/2-1] + d[ld/2]) / 2
	}
	return [3]float64{q(1), med, q(3)}
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
