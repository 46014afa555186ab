// Command probe times the rungs of the layer ladder under the
// end-to-end workloads, each through the public functions of its
// package: event dispatch and process switch (sim), a chunked link
// transfer (interconnect), point-to-point and collective MPI on the
// Tibidabo model (mpi, cluster), one fixed 64-node run per
// application (apps), checkpoint/restart replay (faults), Monte-Carlo
// trials (reliability), and result-store and checkpoint-ledger I/O
// with fsync (store). Every value is host time, the median of several
// repetitions, with the simulated cluster built outside the timed
// region. Each probe also checks the result of the call it times.
//
//	probe -dir SCRATCH
//
// prints one JSON object: the number of checks made, the failures,
// and the metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mobilehpc/internal/apps/hpl"
	"mobilehpc/internal/apps/hydro"
	"mobilehpc/internal/apps/md"
	"mobilehpc/internal/apps/pepc"
	"mobilehpc/internal/apps/specfem"
	"mobilehpc/internal/cluster"
	"mobilehpc/internal/faults"
	"mobilehpc/internal/interconnect"
	"mobilehpc/internal/mpi"
	"mobilehpc/internal/reliability"
	"mobilehpc/internal/sim"
	"mobilehpc/internal/store"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Checks   int               `json:"checks"`
	Failures []string          `json:"failures"`
	Metrics  map[string]metric `json:"metrics"`
}

// reps is how many times each probe repeats; the median is reported.
const reps = 5

// storeKeys is the store size the open probe recovers: seven results
// per registry experiment, the size serve-warm fills.
const storeKeys = 7 * 35

func main() {
	dir := flag.String("dir", "", "scratch directory for the store and ledger probes")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: probe -dir SCRATCH")
		os.Exit(2)
	}
	r := &report{Failures: []string{}, Metrics: map[string]metric{}}
	probeSim(r)
	probeInterconnect(r)
	probeMPI(r)
	probeApps(r)
	probeFaults(r)
	if err := probeStore(r, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *report) check(ok bool, format string, args ...any) {
	r.Checks++
	if !ok {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// timed runs prepare (untimed, when not nil) and then f, reps times,
// and returns the median duration of f divided by ops: seconds per
// operation.
func timed(ops int, prepare, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds() / float64(ops)
	}
	sort.Float64s(ts)
	return ts[reps/2]
}

// tibidabo returns a prepare step for timed that builds a fresh
// Tibidabo model of the given size into *cl.
func tibidabo(nodes int, cl **cluster.Cluster) func() {
	return func() { *cl = cluster.Tibidabo(nodes) }
}

func probeSim(r *report) {
	const steps = 1_000_000
	r.set("sim.step_ns", 1e9*timed(steps, nil, func() {
		e := sim.NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < steps {
				e.After(1, tick)
			}
		}
		e.After(1, tick)
		e.RunAll()
		r.check(n == steps, "sim: %d of %d chained events dispatched", n, steps)
	}), "ns")

	const waits = 200_000
	r.set("sim.proc_switch_ns", 1e9*timed(waits, nil, func() {
		e := sim.NewEngine()
		e.Go("p", func(p *sim.Proc) {
			for i := 0; i < waits; i++ {
				p.Wait(1)
			}
		})
		end := e.RunAll()
		r.check(end == waits, "sim: proc finished at t=%g, want %d", end, waits)
	}), "ns")
}

func probeInterconnect(r *report) {
	const n = 2000
	r.set("interconnect.transfer_us", 1e6*timed(n, nil, func() {
		e := sim.NewEngine()
		l := interconnect.NewLink(e, "l", 1.0)
		e.Go("tx", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				l.TransferChunked(p, 1<<20, 64<<10)
			}
		})
		r.check(e.RunAll() > 0, "interconnect: transfers took no simulated time")
	}), "us")
}

func probeMPI(r *report) {
	for _, size := range []struct {
		name  string
		bytes int
	}{{"4KiB", 4 << 10}, {"32KiB", 32 << 10}, {"64KiB", 64 << 10}, {"1MiB", 1 << 20}} {
		const n = 1000
		var cl *cluster.Cluster
		r.set("mpi.pingpong_us."+size.name, 1e6*timed(n, tibidabo(2, &cl), func() {
			bad := 0
			mpi.Run(cl, 2, func(rk *mpi.Rank) {
				for i := 0; i < n; i++ {
					if rk.ID() == 0 {
						rk.Send(1, 0, nil, size.bytes)
						if rk.Recv(1, 0).Bytes != size.bytes {
							bad++
						}
					} else {
						if rk.Recv(0, 0).Bytes != size.bytes {
							bad++
						}
						rk.Send(0, 0, nil, size.bytes)
					}
				}
			})
			r.check(bad == 0, "mpi: %d ping-pong messages of %s arrived with the wrong size", bad, size.name)
		}), "us")
	}
	for _, ranks := range []int{16, 192} {
		const n = 20
		var cl *cluster.Cluster
		r.set(fmt.Sprintf("mpi.bcast_ms.%d", ranks), 1e3*timed(n, tibidabo(ranks, &cl), func() {
			bad := 0
			mpi.Run(cl, ranks, func(rk *mpi.Rank) {
				for i := 0; i < n; i++ {
					if rk.Bcast(0, i, 64<<10) != i {
						bad++
					}
				}
			})
			r.check(bad == 0, "mpi: %d bcast deliveries on %d ranks were wrong", bad, ranks)
		}), "ms")
		r.set(fmt.Sprintf("mpi.allreduce_ms.%d", ranks), 1e3*timed(n, tibidabo(ranks, &cl), func() {
			bad := 0
			mpi.Run(cl, ranks, func(rk *mpi.Rank) {
				for i := 0; i < n; i++ {
					if rk.AllreduceF64(1, func(a, b float64) float64 { return a + b }) != float64(ranks) {
						bad++
					}
				}
			})
			r.check(bad == 0, "mpi: %d allreduce sums on %d ranks were wrong", bad, ranks)
		}), "ms")
	}
}

// probeApps runs each application once per repetition on 64 nodes at
// the full-size Figure 6 input.
func probeApps(r *report) {
	const nodes, steps = 64, 20
	var cl *cluster.Cluster
	r.set("apps.hpl_s", timed(1, tibidabo(nodes, &cl), func() {
		res := hpl.Run(cl, nodes, hpl.Config{N: int(8192 * math.Sqrt(nodes)), RealN: 64})
		r.check(res.Valid, "apps: hpl residual %g above threshold", res.Residual)
	}), "s")
	r.set("apps.specfem_s", timed(1, tibidabo(nodes, &cl), func() {
		res := specfem.Run(cl, nodes, specfem.Config{Elements: 200000, Steps: steps, RealElements: 16})
		r.check(res.Elapsed > 0, "apps: specfem took no simulated time")
	}), "s")
	r.set("apps.hydro_s", timed(1, tibidabo(nodes, &cl), func() {
		res := hydro.Run(cl, nodes, hydro.Config{Grid: 3072, Steps: steps, RealGrid: 16})
		r.check(res.Elapsed > 0, "apps: hydro took no simulated time")
	}), "s")
	r.set("apps.md_s", timed(1, tibidabo(nodes, &cl), func() {
		res := md.Run(cl, nodes, md.Config{Particles: 500000, Steps: steps, RealParticles: 64})
		r.check(res.Elapsed > 0, "apps: md took no simulated time")
	}), "s")
	r.set("apps.pepc_s", timed(1, tibidabo(nodes, &cl), func() {
		res, err := pepc.Run(cl, nodes, pepc.Config{Particles: 1000000, Steps: steps / 4, RealParticles: 128})
		r.check(err == nil && res.Elapsed > 0, "apps: pepc: %v", err)
	}), "s")
}

// probeFaults replays the faultsweep cell with NIC degradations on
// (MTBF 150 h at the optimal checkpoint interval, 8 nodes) and runs
// the Monte-Carlo job-survival estimator.
func probeFaults(r *report) {
	const trials, ckpt, mtbf, nodes = 20, 0.1, 150.0, 8
	interval := reliability.OptimalCheckpointHours(ckpt, mtbf)
	cfg := faults.RunConfig{WorkHours: 40 * interval, IntervalHours: interval,
		CheckpointHours: ckpt, RestartHours: 0.05, CommFraction: 0.3}
	schedules := make([]faults.Schedule, trials)
	for i := range schedules {
		schedules[i] = faults.Generate(faults.Params{
			Nodes: nodes, HorizonHours: 3 * cfg.WorkHours, MemMTBFHours: 2 * mtbf,
			Stability:     reliability.NodeStability{HangsPerNodeDay: 24 / (2 * mtbf * nodes)},
			LinkMTBFHours: mtbf / 2, Seed: faults.Mix(1, i),
		})
	}
	clusters := make([]*cluster.Cluster, trials)
	r.set("faults.replay_s", timed(trials, func() {
		for i := range clusters {
			clusters[i] = cluster.Tibidabo(nodes)
		}
	}, func() {
		for i, sch := range schedules {
			res := faults.Replay(clusters[i], sch, cfg)
			r.check(res.UsefulFraction > 0 && res.UsefulFraction <= 1,
				"faults: replay useful fraction %g out of (0, 1]", res.UsefulFraction)
		}
	}), "s")

	const mc = 200_000
	perTrial := timed(mc, nil, func() {
		p := reliability.SimulateJobSurvival(mtbf, 24, mc, 1)
		r.check(p > 0 && p < 1, "reliability: survival probability %g out of (0, 1)", p)
	})
	r.set("reliability.mc_trials_per_s", 1/perTrial, "1/s")
}

// probeStore fills a disk-backed store with storeKeys results the size
// of a rendered table, reads them back, reopens the store (journal
// replay at storeKeys entries), and commits checkpoint-ledger lines.
// Put and Commit fsync, so their medians are per call, not per batch.
func probeStore(r *report, dir string) error {
	payload := bytes.Repeat([]byte("mobilehpc result row\n"), 64)
	keys := make([]string, storeKeys)
	for i := range keys {
		h := sha256.Sum256([]byte(fmt.Sprint("e2ebench-key-", i)))
		keys[i] = hex.EncodeToString(h[:16])
	}
	sdir := filepath.Join(dir, "store")
	s, err := store.Open(sdir, 256<<20, nil)
	if err != nil {
		return err
	}
	puts := make([]float64, len(keys))
	for i, k := range keys {
		t0 := time.Now()
		err := s.Put(k, payload)
		puts[i] = time.Since(t0).Seconds()
		r.check(err == nil, "store: put: %v", err)
	}
	sort.Float64s(puts)
	r.set("store.put_ms", 1e3*puts[len(puts)/2], "ms")

	const gets = 100_000
	r.set("store.get_us", 1e6*timed(gets, nil, func() {
		bad := 0
		for i := 0; i < gets; i++ {
			if v, ok := s.Get(keys[i%len(keys)]); !ok || len(v) != len(payload) {
				bad++
			}
		}
		r.check(bad == 0, "store: %d gets missed or returned the wrong size", bad)
	}), "us")
	if err := s.Close(); err != nil {
		return err
	}

	opens := make([]float64, reps)
	for i := range opens {
		t0 := time.Now()
		s, err := store.Open(sdir, 256<<20, nil)
		opens[i] = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		v, ok := s.Get(keys[i])
		r.check(ok && bytes.Equal(v, payload), "store: entry lost across reopen")
		if err := s.Close(); err != nil {
			return err
		}
	}
	sort.Float64s(opens)
	r.set("store.open_ms", 1e3*opens[reps/2], "ms")

	const commits = 40
	led, err := store.OpenLedger(filepath.Join(dir, "ckpt"), "e2e0")
	if err != nil {
		return err
	}
	cts := make([]float64, commits)
	for i := range cts {
		t0 := time.Now()
		err := led.Commit(fmt.Sprint("experiment/task-", i), payload)
		cts[i] = time.Since(t0).Seconds()
		r.check(err == nil, "store: ledger commit: %v", err)
	}
	r.check(led.Len() == commits, "store: ledger holds %d of %d commits", led.Len(), commits)
	sort.Float64s(cts)
	r.set("store.ledger_commit_ms", 1e3*cts[len(cts)/2], "ms")
	return led.Discard()
}
