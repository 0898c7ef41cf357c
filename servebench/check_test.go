package main

import (
	"testing"

	"repro/internal/par"
)

// serverReply computes the reply the server sends for o: the kernel's
// Serial oracle (or, for a delta, RunDelta) on a copy of the record,
// whose output field then lands in o.a as the wire client decodes it.
func serverReply(t *testing.T, o *op) {
	t.Helper()
	cp := cloneArgs(&o.a)
	if o.d != nil {
		if err := o.k.RunDelta(&cp, o.d, par.Options{Procs: 1}); err != nil {
			t.Fatalf("RunDelta: %v", err)
		}
	} else {
		o.k.Serial(&cp)
	}
	switch o.k {
	case kSort, kGUPS:
		o.a.Xs = cp.Xs
	case kSelect, kSum:
		o.a.Out = cp.Out
	case kScan, kTopK:
		o.a.Dst = cp.Dst
	case kHistogram:
		o.a.Hist = cp.Hist
	case kBFS, kCC:
		o.a.Dist = cp.Dist
	}
}

// corrupt changes one element of o's reply.
func corrupt(o *op) {
	a := &o.a
	switch o.k {
	case kSort:
		// Still in order, but no longer a permutation of the input.
		a.Xs[len(a.Xs)/2] = a.Xs[len(a.Xs)/2-1]
	case kGUPS:
		a.Xs[0]++
	case kSelect, kSum:
		a.Out++
	case kScan:
		a.Dst[len(a.Dst)-1]++
	case kTopK:
		a.Dst[len(a.Dst)-1]++
	case kHistogram:
		a.Hist[0]++
	case kBFS:
		far := 0
		for v, d := range a.Dist {
			if d > a.Dist[far] {
				far = v
			}
		}
		a.Dist[far]++
	case kCC:
		for v := range a.Dist {
			if a.Dist[v] != a.Dist[0] {
				a.Dist[v] = a.Dist[0]
				return
			}
		}
	}
}

func TestChecksRejectCorruptReplies(t *testing.T) {
	w, err := lookupWorkload("small-distinct")
	if err != nil {
		t.Fatal(err)
	}
	in := buildInputs(w, 7)
	for _, k := range allKernels {
		t.Run(k.Name, func(t *testing.T) {
			o := op{k: k}
			var b buffers
			s := newStream(7, uint64(indexOf(allKernels, k)))
			in.fill(&o, &b, &s, 1)
			serverReply(t, &o)
			if err := o.check(); err != nil {
				t.Fatalf("correct reply rejected: %v", err)
			}
			corrupt(&o)
			if err := o.check(); err == nil {
				t.Fatal("corrupted reply accepted")
			}
		})
	}
}

func TestDeltaChecksRejectCorruptReplies(t *testing.T) {
	for j, k := range deltaKernels {
		t.Run(k.Name, func(t *testing.T) {
			r := newStanding(k, 7, uint64(j))
			var b buffers
			// A run of correct deltas folds in cleanly and passes.
			for step := 0; step < 3; step++ {
				var o op
				r.mu.Lock()
				fillDelta(r, &o, &b)
				serverReply(t, &o)
				if err := o.complete(nil); err != nil {
					t.Fatalf("delta %d: correct reply rejected: %v", step, err)
				}
			}
			var o op
			r.mu.Lock()
			fillDelta(r, &o, &b)
			serverReply(t, &o)
			corrupt(&o)
			if err := o.complete(nil); err == nil {
				t.Fatal("corrupted delta reply accepted")
			}
		})
	}
}

// TestStandingRecordResets pins the fixed-length cycle: a record takes
// standingDeltas appends, then returns to its base length.
func TestStandingRecordResets(t *testing.T) {
	w, err := lookupWorkload("small-repeat")
	if err != nil {
		t.Fatal(err)
	}
	in := buildInputs(w, 3)
	r := in.standing[0][indexOf(deltaKernels, kSum)]
	var b buffers
	for step := 0; step <= standingDeltas; step++ {
		var o op
		in.prepareDelta(&o, &b, 0, indexOf(deltaKernels, kSum))
		if want := standingBase + (step%standingDeltas)*deltaAppend; len(o.a.Xs) != want {
			t.Fatalf("delta %d sends %d values, want %d", step, len(o.a.Xs), want)
		}
		serverReply(t, &o)
		if err := o.complete(nil); err != nil {
			t.Fatal(err)
		}
	}
	if r.deltas != 1 {
		t.Fatalf("after a full cycle and one more delta, record holds %d deltas, want 1", r.deltas)
	}
}
