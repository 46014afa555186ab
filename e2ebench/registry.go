package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// listRunsPerRound is how many `mhpc list` start-ups are timed before
// each registry run: the rounds are few and long, so they take more
// set-up samples than serve rounds.
const listRunsPerRound = 3

// runRegistry is the registry-full workload: `mhpc all -j 2` at full
// size, repeated until the run's seconds are spent.
func runRegistry(b *bench) (metrics, error) {
	golden, err := readGolden(b.root, "golden-full.txt")
	if err != nil {
		return nil, err
	}
	_, ids, err := goldenSections(golden)
	if err != nil {
		return nil, err
	}
	var walls, rss, setups []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < b.seconds {
		for i := 0; i < listRunsPerRound; i++ {
			s, err := b.listSetup(ids)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		wall, peak, err := b.registryRun(golden)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall)
		rss = append(rss, peak)
	}
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = 1 / w
	}
	ms := metrics{}
	ms.set("wall_s", median(walls), "s")
	ms.set("rps", median(rates), "1/s")
	ms.set("p50_ms", 1e3*median(walls), "ms")
	ms.set("p99_ms", 1e3*percentile(walls, 0.99), "ms")
	ms.set("setup_s", median(setups), "s")
	ms.set("peak_rss_mb", median(rss), "MB")
	return ms, nil
}

// listSetup times one `mhpc list` from exec to exit (process start-up
// plus building the experiment registry) and checks that it lists the
// golden capture's experiments in order.
func (b *bench) listSetup(ids []string) (float64, error) {
	cmd := b.command("mhpc", "list")
	var out bytes.Buffer
	cmd.Stdout = &out
	t0 := time.Now()
	err := cmd.Run()
	elapsed := time.Since(t0).Seconds()
	if err := b.childErr(err); err != nil {
		return 0, err
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			got = append(got, f[0])
		}
	}
	b.outcome(err == nil && strings.Join(got, " ") == strings.Join(ids, " "),
		"mhpc list: exit %v, listed %d ids, want the %d of the golden capture", err, len(got), len(ids))
	return elapsed, nil
}

// registryRun runs `mhpc all -j 2 -intra 1` plus extra flags from
// exec to exit and checks its stdout against the golden capture. It
// returns the wall time and the peak RSS; the error is only for a
// run the benchmark could not make (a wrong or failed run counts as
// a failed operation instead).
func (b *bench) registryRun(golden string, extra ...string) (wall, rssMB float64, err error) {
	cmd := b.command("mhpc", append([]string{"all", "-j", fmt.Sprint(jobs), "-intra", "1"}, extra...)...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	t0 := time.Now()
	runErr := cmd.Run()
	wall = time.Since(t0).Seconds()
	if err := b.childErr(runErr); err != nil {
		return 0, 0, err
	}
	b.outcome(runErr == nil && out.String() == golden,
		"mhpc all: exit %v, stdout %d bytes differs from golden-full.txt (%d bytes); stderr: %s",
		runErr, out.Len(), len(golden), tail(stderr.String()))
	return wall, maxRSSMB(cmd), nil
}

// childErr separates a child that ran and failed (nil: the caller
// counts it as a failed operation) from one the benchmark could not
// run or had to stop.
func (b *bench) childErr(err error) error {
	if b.ctx.Err() != nil {
		return b.ctx.Err()
	}
	var exit *exec.ExitError
	if err == nil || errors.As(err, &exit) {
		return nil
	}
	return err
}

// tail is the last few hundred bytes of a child's stderr, for failure
// reports.
func tail(s string) string {
	const n = 400
	if len(s) > n {
		s = "..." + s[len(s)-n:]
	}
	return strings.TrimSpace(s)
}

// slots is the CPU share the traced run is accounted against: the two
// workers of the experiment pool.
const slots = jobs

// headlineExperiments get their own self-time metric; the rest of the
// registry is summed under "other".
var headlineExperiments = []string{"hpl-grid", "fig6", "faultsweep", "ablation-openmx", "green500"}

// traceEvent is the part of a chrome://tracing event the ladder reads.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // µs
	Dur  float64 `json:"dur"` // µs
	Args struct {
		ID     int64 `json:"id"`
		Parent int64 `json:"parent"`
	} `json:"args"`
}

// manifest is the part of the mhpc run manifest the ladder reads.
type manifest struct {
	Counters   map[string]float64 `json:"counters"`
	Histograms map[string]struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

// registryLadder makes the traced registry pass: two untraced and two
// traced `mhpc all` runs, interleaved so host-load drift falls on both
// sides of the overhead ratio, all checked against the golden capture.
// The harness, sim, mpi, faults and obs metrics come from the trace
// and manifest of the last traced run; the counts the simulation
// determines must repeat exactly between the two traced runs.
func (b *bench) registryLadder(ms metrics) error {
	golden, err := readGolden(b.root, "golden-full.txt")
	if err != nil {
		return err
	}
	var plain, traced []float64
	var tf struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	var mfs [2]manifest
	for i := range mfs {
		w, _, err := b.registryRun(golden)
		if err != nil {
			return err
		}
		plain = append(plain, w)
		tracePath := filepath.Join(b.scratch, fmt.Sprintf("trace%d.json", i))
		manifestPath := filepath.Join(b.scratch, fmt.Sprintf("manifest%d.json", i))
		if w, _, err = b.registryRun(golden, "-trace-out", tracePath, "-report", manifestPath); err != nil {
			return err
		}
		traced = append(traced, w)
		if err := readJSON(manifestPath, &mfs[i]); err != nil {
			return err
		}
		if i == len(mfs)-1 {
			if err := readJSON(tracePath, &tf); err != nil {
				return err
			}
		}
	}
	ms.set("obs.trace_overhead_frac", median(traced)/median(plain)-1, "ratio")
	for _, c := range []string{"sim.events.dispatched", "sim.events.canceled", "faults.injected"} {
		b.outcome(mfs[0].Counters[c] == mfs[1].Counters[c],
			"manifest: %s %g then %g, want equal counts", c, mfs[0].Counters[c], mfs[1].Counters[c])
	}
	b.outcome(mfs[0].Histograms["mpi.transfer_bytes"] == mfs[1].Histograms["mpi.transfer_bytes"],
		"manifest: mpi.transfer_bytes %+v then %+v, want equal", mfs[0].Histograms["mpi.transfer_bytes"], mfs[1].Histograms["mpi.transfer_bytes"])
	mf := mfs[1]
	a, err := accountSpans(tf.TraceEvents)
	if err != nil {
		return err
	}
	closure := (a.leaf + a.idle) / (slots * a.wall)
	other := 0.0
	for exp, s := range a.self {
		if !slices.Contains(headlineExperiments, exp) {
			other += s
		}
	}
	for _, exp := range headlineExperiments {
		ms.set("harness.exp_self_s."+exp, a.self[exp], "s")
	}
	ms.set("harness.exp_self_s.other", other, "s")
	ms.set("harness.critical_task_s", a.longest, "s")
	ms.set("harness.busy_frac", a.busy/(slots*a.wall), "ratio")
	ms.set("harness.slot_closure", closure, "ratio")
	ms.set("harness.task_p50_ms", 1e3*median(a.tasks), "ms")
	ms.set("harness.task_p99_ms", 1e3*percentile(a.tasks, 0.99), "ms")
	ms.set("harness.tasks", float64(len(a.tasks)), "count")
	if closure < 0.9 || closure > 1.1 {
		fmt.Fprintf(os.Stderr, "e2ebench: finding: self times %.3fs + idle %.3fs = %.3f x %d x traced wall %.3fs, "+
			"not 1 within 10%%: more leaf tasks ran at once than the %d experiment workers\n",
			a.leaf, a.idle, closure, slots, a.wall, slots)
	}
	// The trace and the manifest are written by different code: the
	// task spans must match the pool's own task count and latency sum.
	b.outcome(float64(len(a.tasks)) == mf.Counters["pool.tasks"],
		"trace: %d task spans but the manifest counts %g pool tasks", len(a.tasks), mf.Counters["pool.tasks"])
	spanSum, latSum := sum(a.tasks), mf.Histograms["pool.task_latency_ns"].Sum/1e9
	b.outcome(math.Abs(spanSum-latSum) <= 0.01*latSum,
		"trace: task spans sum to %.4fs but the manifest's pool.task_latency_ns to %.4fs, want equal within 1%%", spanSum, latSum)

	dispatched := mf.Counters["sim.events.dispatched"]
	ms.set("sim.events_dispatched", dispatched, "count")
	ms.set("sim.events_canceled", mf.Counters["sim.events.canceled"], "count")
	ms.set("sim.events_per_s", dispatched/a.wall, "1/s")
	tb := mf.Histograms["mpi.transfer_bytes"]
	ms.set("mpi.transfers", tb.Count, "count")
	ms.set("mpi.transfer_bytes", tb.Sum, "B")
	ms.set("faults.injected", mf.Counters["faults.injected"], "count")
	return nil
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return nil
}

// accounting is where the traced run's worker time went.
type accounting struct {
	wall    float64            // run span, s
	self    map[string]float64 // experiment id -> self time, s
	leaf    float64            // sum of self
	busy    float64            // slot time with a leaf running, s
	idle    float64            // slot time with no leaf running, s
	longest float64            // longest experiment span, s
	tasks   []float64          // experiment and sub-run span durations, s
}

// accountSpans charges the traced run's time to experiments. Leaf
// spans (experiment, sub-run or Monte-Carlo chunk spans with no open
// child) are the work running at an instant, and each is charged the
// whole interval, to the experiment it belongs to: an experiment's
// self time is its spans' time minus the time of their child spans.
// With k leaves open, min(k, slots) slots are busy and the rest idle.
// Fault spans are markers inside a running sub-run and are skipped.
//
// Self plus idle time equals slots x wall only while no more than
// slots leaves overlap; what it exceeds that by is the time the nested
// pools ran more leaf tasks than there are experiment workers.
func accountSpans(events []traceEvent) (accounting, error) {
	a := accounting{self: map[string]float64{}}
	type span struct {
		exp        string
		parent     int64
		start, end float64
	}
	spans := map[int64]*span{}
	var runStart, runEnd float64
	haveRun := false
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		switch e.Cat {
		case "run":
			runStart, runEnd, haveRun = e.Ts, e.Ts+e.Dur, true
		case "experiment", "subrun", "chunk":
			spans[e.Args.ID] = &span{parent: e.Args.Parent, start: e.Ts, end: e.Ts + e.Dur}
			if e.Cat == "experiment" {
				spans[e.Args.ID].exp = e.Name
				a.longest = max(a.longest, e.Dur/1e6)
			}
			if e.Cat != "chunk" {
				a.tasks = append(a.tasks, e.Dur/1e6)
			}
		}
	}
	if !haveRun || len(spans) == 0 {
		return a, fmt.Errorf("trace: no run span or no task spans")
	}
	a.wall = (runEnd - runStart) / 1e6
	// Resolve each span's experiment through its parents.
	var expOf func(id int64, depth int) (string, error)
	expOf = func(id int64, depth int) (string, error) {
		s, ok := spans[id]
		if !ok || depth > len(spans) {
			return "", fmt.Errorf("trace: span %d has no experiment ancestor", id)
		}
		if s.exp == "" {
			exp, err := expOf(s.parent, depth+1)
			if err != nil {
				return "", err
			}
			s.exp = exp
		}
		return s.exp, nil
	}
	type edge struct {
		t     float64
		id    int64
		start bool
	}
	var edges []edge
	for id, s := range spans {
		if _, err := expOf(id, 0); err != nil {
			return a, err
		}
		edges = append(edges, edge{max(s.start, runStart), id, true}, edge{min(s.end, runEnd), id, false})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	open := map[int64]bool{}
	children := map[int64]int{}
	last := runStart
	charge := func(until float64) {
		dt := (until - last) / 1e6
		last = until
		if dt <= 0 {
			return
		}
		k := 0.0
		for id := range open {
			if children[id] == 0 {
				a.self[spans[id].exp] += dt
				k++
			}
		}
		a.leaf += k * dt
		a.busy += min(k, slots) * dt
		a.idle += max(0, slots-k) * dt
	}
	for _, e := range edges {
		charge(e.t)
		p := spans[e.id].parent
		if e.start {
			open[e.id] = true
			if _, ok := spans[p]; ok {
				children[p]++
			}
		} else {
			delete(open, e.id)
			if _, ok := spans[p]; ok {
				children[p]--
			}
		}
	}
	charge(runEnd)
	return a, nil
}
