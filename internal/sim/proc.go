package sim

import "fmt"

// Proc is a blocking simulation process run as a coroutine (see pull).
// A process may suspend itself (Wait, Queue.Pop, Hold) and be resumed
// later by the engine; while it runs, the engine dispatch loop is
// suspended in the resume call, so exactly one goroutine is ever active
// and the simulation stays deterministic.
type Proc struct {
	eng      *Engine
	name     string
	gid      int64                   // cached goroutine id, set once at first resume
	next     func() (struct{}, bool) // engine -> proc: run until parked or done
	yield    func(struct{}) bool     // proc -> engine: parked
	dead     bool
	aborting bool // set by Engine.terminate: next resume must unwind, not run
	liveIdx  int  // position in eng.live while alive
	panicV   any
	// wake resumes this process from engine context. Allocated once at
	// spawn so Wait/Queue/Resource wakeups schedule it with no per-call
	// closure.
	wake func()
}

// procAbort is the internal panic value that unwinds a process
// terminated by an engine abort. It is deliberately not *AbortError:
// process code (or its deferred cleanup) recovering abort errors at a
// task boundary must never swallow the teardown of a sibling process.
type procAbort struct{}

// Name returns the name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Go spawns fn as a simulation process starting at the current virtual
// time. fn runs when the engine dispatches its start event.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.wake = func() { e.switchTo(p) }
	e.procs++
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
	// The coroutine is never stopped: a process always leaves through
	// its body, even when terminated before its first resume, so the
	// death defer below runs on every path.
	p.next, _ = pull(func(yield func(struct{}) bool) {
		p.yield = yield
		// Control handed to this process for the first time: learn our
		// goroutine id once; every later handoff reuses it.
		p.gid = gid()
		e.owner.Store(p.gid)
		defer func() {
			p.dead = true
			e.procs--
			e.dropLive(p)
			if r := recover(); r != nil {
				p.panicV = r
			}
		}()
		if p.aborting {
			// Terminated before ever running: unwind without calling fn.
			panic(procAbort{})
		}
		fn(p)
	})
	e.Schedule(0, p.wake)
	return p
}

// switchTo hands control from the engine loop to p until p parks or
// returns. Must only be called from engine (event-callback) context.
func (e *Engine) switchTo(p *Proc) {
	if p.dead {
		panic(fmt.Sprintf("sim: resuming dead process %q", p.name))
	}
	p.next()
	e.owner.Store(e.loopGid) // control back in the dispatch loop
	if p.panicV != nil {
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.panicV))
	}
}

// park suspends the calling process until the engine resumes it. A
// resume issued by Engine.terminate does not hand control back to the
// process body: it panics procAbort so the body unwinds (running its
// defers) and returns — the teardown path of a cancelled run.
func (p *Proc) park() {
	p.yield(struct{}{})
	p.eng.owner.Store(p.gid) // control handed back to this process
	if p.aborting {
		panic(procAbort{})
	}
}

// dropLive removes p from the engine's live list (O(1) swap-remove).
// Called from the process's own death defer, which runs while the
// engine is suspended in p.next — so the list is never mutated
// concurrently.
func (e *Engine) dropLive(p *Proc) {
	last := len(e.live) - 1
	moved := e.live[last]
	e.live[p.liveIdx] = moved
	moved.liveIdx = p.liveIdx
	e.live[last] = nil
	e.live = e.live[:last]
}

// terminate force-unwinds one parked (or not-yet-started) process:
// resume it with the aborting mark set, which makes park (or the
// spawn prologue) panic procAbort in the process body; the death defer
// then marks it dead, drops it from the live list, and the body
// returns. Any panic value the unwinding produced is discarded — the
// run is being cancelled, and procAbort (or a secondary panic out of
// the process's own defers) must not mask the *AbortError the caller
// is about to raise.
func (e *Engine) terminate(p *Proc) {
	p.aborting = true
	p.next()
	e.owner.Store(e.loopGid) // control back in the dispatch loop
}

// Suspend parks the calling process with no scheduled wakeup; some other
// component must eventually call Wake (directly, or by scheduling p's
// wakeup through a Queue or Resource). This is the building block for
// event-driven state machines that complete a blocking call on a
// process's behalf, e.g. the interconnect's chunked transfer pump.
func (p *Proc) Suspend() { p.park() }

// Wake resumes a process parked by Suspend and runs it until it parks
// again. Must be called from engine (event-callback) context, exactly
// like any other resume.
func (p *Proc) Wake() { p.eng.switchTo(p) }

// PostWake schedules p's resumption at the current instant through the
// event queue — the same deterministic wake Queue.Push and
// Resource.Release use, landing in FIFO order with other equal-time
// events. Unlike Wake (a direct handoff, engine context only) it may be
// called from another process's context too; p resumes when the posted
// event fires.
func (p *Proc) PostWake() { p.eng.post(p.eng.now, p.wake) }

// Wait suspends the process for d seconds of virtual time.
func (p *Proc) Wait(d float64) {
	p.eng.After(d, p.wake)
	p.park()
}

// WaitUntil suspends the process until absolute virtual time t. If t is
// in the past it is a no-op.
func (p *Proc) WaitUntil(t float64) {
	if t <= p.eng.now {
		return
	}
	p.eng.AtFunc(t, p.wake)
	p.park()
}

// Queue is an unbounded FIFO connecting processes (and plain events) to
// processes. Push never blocks; Pop suspends the calling process until an
// item is available. Wakeups are funnelled through the event queue so
// ordering stays deterministic.
type Queue struct {
	eng     *Engine
	items   []any
	waiters []*Proc
}

// NewQueue returns an empty queue bound to e.
func NewQueue(e *Engine) *Queue { return &Queue{eng: e} }

// Len reports the number of queued items.
func (q *Queue) Len() int { return len(q.items) }

// Push appends v and wakes the oldest waiting process, if any. It may be
// called from event callbacks or from process context.
func (q *Queue) Push(v any) {
	q.items = append(q.items, v)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[:copy(q.waiters, q.waiters[1:])]
		q.eng.post(q.eng.now, w.wake)
	}
}

// Pop removes and returns the head item, suspending p until one exists.
func (q *Queue) Pop(p *Proc) any {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v := q.items[0]
	q.items = q.items[:copy(q.items, q.items[1:])]
	return v
}

// TryPop removes and returns the head item without blocking; ok is false
// if the queue is empty.
func (q *Queue) TryPop() (v any, ok bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v = q.items[0]
	q.items = q.items[:copy(q.items, q.items[1:])]
	return v, true
}

// Resource is a counted semaphore over virtual time: Acquire suspends the
// caller while no units are free. It models contended serial resources
// such as a NIC DMA engine or a shared link injection port.
type Resource struct {
	eng  *Engine
	free int
	// waiters is the FIFO of pending acquisitions, each represented by
	// the callback that receives the unit: a process's wake function
	// (Acquire) or a plain continuation (AcquireFunc). One queue keeps
	// the two acquisition styles strictly FIFO with each other.
	waiters []func()
}

// NewResource returns a resource with capacity units available.
func NewResource(e *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: e, free: capacity}
}

// Free reports currently available units.
func (r *Resource) Free() int { return r.free }

// Acquire takes one unit, suspending p until one is available. The
// queue is strictly FIFO: a process releasing and immediately
// re-acquiring goes behind already-queued waiters, so long chunked
// transfers cannot starve competing flows.
func (r *Resource) Acquire(p *Proc) {
	if r.free > 0 && len(r.waiters) == 0 {
		r.free--
		return
	}
	r.waiters = append(r.waiters, p.wake)
	p.park()
	// Woken by Release, which handed the unit to us directly.
}

// AcquireFunc takes one unit and runs fn once it is held: immediately
// (before returning) when a unit is free and nobody is queued, otherwise
// from the event that hands the unit over, in the same FIFO position a
// blocking Acquire would have had. The event-driven counterpart to
// Acquire for callers that must not park a process per acquisition.
func (r *Resource) AcquireFunc(fn func()) {
	if r.free > 0 && len(r.waiters) == 0 {
		r.free--
		fn()
		return
	}
	r.waiters = append(r.waiters, fn)
}

// Release returns one unit: if acquirers are queued, the unit passes
// directly to the oldest waiter (it owns the resource when it wakes);
// otherwise the free count grows.
func (r *Resource) Release() {
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[:copy(r.waiters, r.waiters[1:])]
		r.eng.post(r.eng.now, w)
		return
	}
	r.free++
}
