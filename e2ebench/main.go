package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// jobs is the concurrency of every workload: two pool workers for
// mhpc, two client connections for mhpcd. It is fixed rather than
// taken from the host so that a workload is the same load everywhere;
// the fingerprint records the host's CPUs beside it.
const jobs = 2

// runBudget bounds one invocation, below the 180 s a run may take, so
// a wedged child is killed and the run fails instead of hanging.
const runBudget = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is the name -> value map a run reports.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line a run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// fingerprint identifies the host and toolchain a result was measured
// on; results are comparable only between equal fingerprints.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// record is one run's result as written to the results directory.
type record struct {
	Schema      string      `json:"schema"`
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Trace       int         `json:"trace"`
	Seconds     int         `json:"seconds"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

const recordSchema = "e2ebench-result/v2"

// bench is the state one invocation shares across its workload code.
type bench struct {
	ctx     context.Context
	root    string // checkout root: goldens and build inputs
	bin     string // directory holding the mhpc and mhpcd binaries
	scratch string // per-run directory for stores, traces and probes
	seed    int64
	seconds time.Duration

	attempted, failed int
}

// outcome counts one checked operation; a failure is also reported on
// stderr with what went wrong.
func (b *bench) outcome(ok bool, what string, args ...any) {
	var fails []string
	if !ok {
		fails = []string{fmt.Sprintf(what, args...)}
	}
	b.outcomes(1, fails)
}

// outcomes counts n checked operations of which len(fails) failed,
// reporting the first few failures on stderr.
func (b *bench) outcomes(n int, fails []string) {
	const shown = 5
	for i, f := range fails {
		if b.failed+i < shown {
			fmt.Fprintln(os.Stderr, "e2ebench: FAILED:", f)
		}
	}
	b.attempted += n
	b.failed += len(fails)
}

// workloads maps each workload to its end-to-end run and its traced
// serve pass.
var workloads = map[string]struct {
	run   func(*bench) (metrics, error)
	serve func(*bench) (metrics, error)
}{
	"registry-full": {runRegistry, traceServeCold},
	"serve-cold":    {runServeCold, traceServeCold},
	"serve-warm":    {runServeWarm, traceServeWarm},
}

func main() { os.Exit(run()) }

// options are one invocation's flags.
type options struct {
	workload       string
	root, bin, out string
	refserve       bool
	addr           string
	seed           int64
	seconds, trace int
}

func run() int {
	var o options
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding mhpc and mhpcd")
	flag.StringVar(&o.out, "out", ".bench_build/results", "directory the result records are written to")
	flag.StringVar(&o.workload, "workload", "", "registry-full, serve-cold or serve-warm")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 35, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.refserve, "refserve", false, "serve serve-warm's host reference on -addr (started by the benchmark itself)")
	flag.StringVar(&o.addr, "addr", "", "address of the -refserve server")
	flag.Parse()
	if o.refserve {
		return refServe(o.addr)
	}
	if flag.NArg() > 0 && flag.Arg(0) == "compare" {
		return compare(filepath.Join(o.root, "BENCHMARK.json"), flag.Args()[1:])
	}
	if _, ok := workloads[o.workload]; !ok || flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -workload registry-full|serve-cold|serve-warm -seed N -seconds S -trace 0|1")
		fmt.Fprintln(os.Stderr, "       e2ebench compare DIR [DIR2]")
		return 2
	}
	if err := measure(o); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// measure runs one workload and prints its fingerprint, a readable
// metric list and, last, the JSON result line.
func measure(o options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	var err error
	for _, p := range []*string{&o.root, &o.bin, &o.out} {
		if *p, err = filepath.Abs(*p); err != nil {
			return err
		}
	}
	scratch, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	b := &bench{ctx: ctx, root: o.root, bin: o.bin, scratch: scratch,
		seed: o.seed, seconds: time.Duration(o.seconds) * time.Second}

	// The load generator keeps to one CPU, so it competes with the
	// program it measures for no more than that. With two, its
	// clients' wake-ups and collections took turns with mhpcd's on a
	// 2-CPU host and set serve-warm's tail: p99_ms read 1.0 to 2.5 ms
	// over five seeds, and 0.69 to 0.80 ms with one CPU, no client
	// collections (see drive) and a warm-up per round. The
	// fingerprint keeps the host's own GOMAXPROCS, which mhpc and mhpcd
	// run with.
	fp := hostFingerprint()
	runtime.GOMAXPROCS(1)

	w := workloads[o.workload]
	var ms metrics
	if o.trace == 1 {
		ms, err = b.traceLadder(w.serve)
	} else {
		ms, err = w.run(b)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return err
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms}
	fmt.Printf("fingerprint: cpu=%q nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d trace=%d\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, o.workload, o.seed, o.trace)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Printf("  %-36s %14.6g ratio (%d failed of %d attempted)\n", "fail_frac",
		float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	rec := record{Schema: recordSchema, Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Seconds: o.seconds, Fingerprint: fp, Result: res}
	if err := writeRecord(o.out, rec); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traceLadder measures the per-layer metrics: the probes, the traced
// registry pass, and the workload's own serve pass.
func (b *bench) traceLadder(serve func(*bench) (metrics, error)) (metrics, error) {
	ms := metrics{}
	if err := b.probes(ms); err != nil {
		return nil, err
	}
	if err := b.registryLadder(ms); err != nil {
		return nil, err
	}
	layer, err := serve(b)
	if err != nil {
		return nil, err
	}
	for n, m := range layer {
		ms[n] = m
	}
	return ms, nil
}

// probes builds and runs the layer probes (e2ebench/probe). They are
// built only here, for traced runs, so the end-to-end runs depend on
// nothing but the mhpc and mhpcd binaries.
func (b *bench) probes(ms metrics) error {
	build := exec.CommandContext(b.ctx, "go", "build", "-o", filepath.Join(b.bin, "probe"), "./probe")
	build.Dir = filepath.Join(b.root, "e2ebench")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building the layer probes: %w", err)
	}
	dir, err := os.MkdirTemp(b.scratch, "probe-")
	if err != nil {
		return err
	}
	cmd := b.command("probe", "-dir", dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	var rep struct {
		Checks   int      `json:"checks"`
		Failures []string `json:"failures"`
		Metrics  metrics  `json:"metrics"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	b.outcomes(rep.Checks, rep.Failures)
	for n, m := range rep.Metrics {
		ms[n] = m
	}
	return nil
}

// hostFingerprint reads the CPU model from /proc/cpuinfo; the rest
// comes from the Go runtime that also built mhpc and mhpcd.
func hostFingerprint() fingerprint {
	fp := fingerprint{CPUModel: "unknown", NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return fp
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			fp.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return fp
}

// writeRecord stores rec as one JSON file under dir/<workload>/.
func writeRecord(dir string, rec record) error {
	dir = filepath.Join(dir, rec.Workload)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("trace%d-seed%d-%d.json", rec.Trace, rec.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o666)
}

// command builds a child process of the benchmark: bound to the run's
// context, with the mhpc parallelism environment defaults removed so
// only explicit flags shape the run. On cancellation the child gets
// SIGTERM (mhpc and mhpcd both shut down cleanly on it) and is killed
// if it has not exited 10 s later.
func (b *bench) command(name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(b.ctx, filepath.Join(b.bin, name), args...)
	cmd.Dir = b.scratch
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "MHPC_") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	return cmd
}

// maxRSSMB is the peak resident set of an exited child, in MiB. Linux
// counts in it the resident set this process had when it started the
// child (exec records the old address space's high-water mark, and
// the child starts in this one), a few MB for the registry-full runs
// it is used for; mhpc's own peak is larger. A child whose peak must
// exclude the load generator's memory is read with vmHWMMB instead.
func maxRSSMB(cmd *exec.Cmd) float64 {
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// vmHWMMB is the peak resident set of a running child's own address
// space, in MiB: VmHWM from /proc/<pid>/status.
func vmHWMMB(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %q: %w", pid, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}
