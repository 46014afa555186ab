package harness

// Parallel experiment scheduling. The registry sweep in RunAll, the
// per-node-count sub-runs inside the cluster experiments, and the
// Monte-Carlo reduction in internal/reliability all funnel through the
// same bounded worker pool, and all obey one contract:
//
//   * every task owns its state — its own cluster (and therefore its
//     own sim.Engine) and, when it samples, its own RNG seeded by
//     TaskSeed — so tasks never share mutable data;
//   * results are merged in task-index order, never completion order,
//     so the rendered tables and CSV output of a parallel run are
//     byte-identical to the serial run.
//
// Jobs <= 1 takes the exact legacy path: a plain loop on the calling
// goroutine with no channels, no goroutines, no pool.
//
// Cancellation and panics share one containment design. The run's
// abort flag (bound to the submitting goroutine by RunAllContext /
// TablesContext, see internal/sim.BindAbort) is re-bound onto every
// worker goroutine, so engines built anywhere inside a task poll it.
// A worker never lets a panic escape its goroutine: a cancelled
// engine's *sim.AbortError is converted back into the abort cause,
// and any other panic becomes a *TaskPanicError (tagged with the task
// label, its TaskSeed, and the stack) that also raises the abort flag
// so sibling tasks stop. The first failure by task index — not by
// completion time — is what surfaces, so the reported error is the
// same at every -j.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"mobilehpc/internal/obs"
	"mobilehpc/internal/sim"
)

// TaskPanicError is a recovered panic from one pool task, tagged with
// enough context to reproduce it: the task's index and label, the
// deterministic TaskSeed derived from that label, the panic value,
// and the stack at the panic site. The pool converts worker panics
// into this error instead of crashing the process from a worker
// goroutine (or deadlocking a caller that recovers).
type TaskPanicError struct {
	Index int    // task index within its parmap call
	Label string // task label (experiment id, sub-run name); "" untagged
	Seed  uint64 // TaskSeed(Label) when labelled, 0 otherwise
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery, trimmed to the task goroutine
}

// Error summarises the panic; the stack is available on the struct.
func (e *TaskPanicError) Error() string {
	label := e.Label
	if label == "" {
		label = fmt.Sprintf("#%d", e.Index)
	}
	return fmt.Sprintf("harness: task %s (seed %d) panicked: %v", label, e.Seed, e.Value)
}

// parmap runs task(i) for i in [0, n) on up to `jobs` worker
// goroutines and returns the results indexed by i. With jobs <= 1 (or
// a single task) it degenerates to a serial loop on the calling
// goroutine — the legacy execution path, bit-for-bit. A panicking task
// does not crash the process from a worker goroutine: the first panic
// (by task index) is captured and re-raised on the caller once all
// workers drain.
func parmap[T any](jobs, n int, task func(i int) T) []T {
	return parmapObs("", nil, jobs, n, task)
}

// parmapObs is parmap with telemetry: when a collector is active and
// a namer is given, each task execution is wrapped in a span named
// name(i) of the given category, tagged with the pool slot that ran
// it and parented under the span open on the submitting goroutine —
// that is how experiment spans nest under the run and sub-run spans
// nest under their experiment. The pool.queued/pool.active gauges and
// the pool.tasks counter track slot occupancy. With no collector (or
// no namer) the telemetry path vanishes behind one atomic load and
// execution is exactly parmap's.
//
// Errors propagate by panic here: this is the nested form used by the
// sub-run fan-outs inside experiments, whose enclosing task is itself
// guarded by parmapErr. The top-level entry points use parmapErr
// directly and return the error instead.
func parmapObs[T any](cat string, name func(i int) string, jobs, n int, task func(i int) T) []T {
	out, err := parmapErr(cat, name, jobs, n, task)
	switch e := err.(type) {
	case nil:
		return out
	case *TaskPanicError:
		panic(e) // re-raised, caught (still tagged) one level up
	case *sim.AbortError:
		panic(e) // keep unwinding to the run boundary
	default:
		// A bare abort cause (context.Canceled, a deadline): re-wrap so
		// the enclosing pool recognises the unwind as a cancellation,
		// not a task bug.
		panic(&sim.AbortError{Err: e})
	}
}

// parmapErr is the guarded core of the pool: it runs the tasks like
// parmapObs and returns the first failure (by task index) as an error
// instead of panicking. On cancellation — the bound abort flag raised
// by a context watcher or by a failing sibling — pending tasks are
// skipped, in-flight tasks unwind via their engines' abort poll, and
// the abort cause is returned. Results are only meaningful when the
// error is nil.
func parmapErr[T any](cat string, name func(i int) string, jobs, n int, task func(i int) T) ([]T, error) {
	flag := sim.BoundAbort()
	led := BoundLedger()
	run := func(worker, i int) T { return task(i) }
	if ob := obs.Active(); ob != nil && name != nil {
		parent := ob.CurrentSpan()
		queued, active := ob.Gauge("pool.queued"), ob.Gauge("pool.active")
		tasks := ob.Counter("pool.tasks")
		// Per-task wall latency feeds the live p50/p95/p99 surfaces
		// (stream deltas, /metrics, the run manifest's summaries).
		latency := ob.Histogram("pool.task_latency_ns")
		queued.Add(int64(n))
		inner := run
		run = func(worker, i int) T {
			queued.Add(-1)
			active.Add(1)
			defer active.Add(-1)
			tasks.Add(1)
			t0 := time.Now()
			sp := ob.StartWorkerSpan(name(i), cat, worker, parent)
			defer func() {
				sp.End()
				latency.Observe(time.Since(t0).Nanoseconds())
			}()
			return inner(worker, i)
		}
	}
	if led != nil && name != nil {
		// Skip-completed fan-out (see ckpt.go): a ledger hit returns the
		// committed result without executing the task — outside the
		// telemetry wrapper, so pool.tasks counts only executed tasks and
		// no span opens for a skip; the pre-added queued gauge is
		// balanced by hand. A task that does run commits its result
		// before the merge. Ledger errors are swallowed: checkpointing is
		// an optimisation, never a correctness requirement.
		exec := run
		run = func(worker, i int) T {
			label := cat + "/" + name(i)
			if raw, ok := led.Lookup(label); ok {
				if v, ok := ckptDecode[T](raw); ok {
					obs.Active().Gauge("pool.queued").Add(-1)
					obs.Active().Counter("ckpt.hits").Add(1)
					return v
				}
			}
			v := exec(worker, i)
			if raw, ok := ckptEncode(any(v)); ok && led.Commit(label, raw) == nil {
				obs.Active().Counter("ckpt.commits").Add(1)
			}
			return v
		}
	}
	out := make([]T, n)
	errs := make([]error, n)
	// exec runs one task with the panic guard: an abort unwind is
	// recorded as the abort cause, any other panic becomes a tagged
	// *TaskPanicError that also cancels the remaining tasks.
	exec := func(worker, i int) {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			switch p := r.(type) {
			case *sim.AbortError:
				errs[i] = p
			case *TaskPanicError:
				// Re-raised by a nested parmapObs: already tagged.
				errs[i] = p
				flag.Abort(p)
			default:
				tpe := &TaskPanicError{Index: i, Value: r, Stack: taskStack()}
				if name != nil {
					tpe.Label = name(i)
					tpe.Seed = taskSeedQuiet(tpe.Label)
				}
				errs[i] = tpe
				flag.Abort(tpe)
			}
		}()
		out[i] = run(worker, i)
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if flag.Aborted() {
				break
			}
			exec(0, i)
			if errs[i] != nil {
				break
			}
		}
		return out, firstError(errs, flag)
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			if flag != nil {
				// Inherit the run's abort flag so engines (and nested
				// pools) created by this worker's tasks are cancellable.
				defer sim.BindAbort(flag)()
			}
			if led != nil {
				// Inherit the checkpoint ledger the same way, so nested
				// sub-run pools can skip and commit their own tasks.
				defer BindLedger(led)()
			}
			for i := range idx {
				exec(worker, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		if flag.Aborted() {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out, firstError(errs, flag)
}

// firstError picks the error parmapErr surfaces: the lowest-index
// task panic if any task panicked (deterministic at every -j for
// deterministic tasks), otherwise the abort cause when the run was
// cancelled, otherwise nil. Abort-unwind entries alone do not count
// as the root failure — they are the echo of the cancellation.
func firstError(errs []error, flag *sim.AbortFlag) error {
	var firstAbort error
	for _, err := range errs {
		switch e := err.(type) {
		case nil:
		case *TaskPanicError:
			return e
		default:
			if firstAbort == nil {
				firstAbort = err
			}
		}
	}
	if flag.Aborted() {
		err := flag.Err()
		if tpe, ok := err.(*TaskPanicError); ok {
			// A nested pool raised the flag with its task's panic but
			// the enclosing task's own error slot was lost (e.g. the
			// caller goroutine stopped issuing work): still surface it.
			return tpe
		}
		return err
	}
	return firstAbort
}

// taskStack captures the panicking goroutine's stack for a
// TaskPanicError.
func taskStack() []byte {
	buf := make([]byte, 64<<10)
	return buf[:runtime.Stack(buf, false)]
}

// TaskSeed derives a stable 64-bit seed from a path of labels
// (experiment ID, sub-run name, node count, ...) via FNV-1a. The seed
// depends only on the labels — never on worker count, scheduling
// order, or wall clock — which is what makes sampled experiments
// reproducible and independent of -j.
func TaskSeed(parts ...string) uint64 {
	seed := taskSeedQuiet(parts...)
	// Telemetry only: the run manifest lists every (label path, seed)
	// derivation so sampled experiments can be re-derived exactly. The
	// seed value itself never depends on the collector, and the label
	// join is only paid when a collector is attached.
	if ob := obs.Active(); ob != nil {
		ob.RecordSeed(strings.Join(parts, "/"), seed)
	}
	return seed
}

// taskSeedQuiet is TaskSeed without the manifest recording — used when
// tagging a TaskPanicError, where noting a seed that never drove a
// completed task would pollute the run manifest.
func taskSeedQuiet(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0}) // unambiguous separator: ("a","b") != ("ab")
	}
	return h.Sum64()
}

// TaskRNG returns a private rand.Rand for one task, seeded with
// TaskSeed(parts...). Each parallel task must draw from its own RNG:
// sharing one generator across workers would both race and make the
// draw order (hence the output) depend on scheduling.
func TaskRNG(parts ...string) *rand.Rand {
	return rand.New(rand.NewSource(int64(TaskSeed(parts...))))
}

// cachedValue returns a function that computes f on the first call
// that completes and returns that value from then on. Unlike
// sync.OnceValue it caches no panic: when the run that first asks is
// cancelled, its abort unwinds through f and the next caller, perhaps
// from another run, computes afresh instead of inheriting the abort.
// Callers are serialised while f runs.
func cachedValue[T any](f func() T) func() T {
	var (
		mu   sync.Mutex
		v    T
		done bool
	)
	return func() T {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			v, done = f(), true
		}
		return v
	}
}
