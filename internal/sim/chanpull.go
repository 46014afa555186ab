package sim

import "runtime"

// chanPull implements pull's contract, which is iter.Pull's, with a
// goroutine and an unbuffered channel pair. It is the coroutine
// implementation on toolchains older than go1.23 and the reference the
// iter.Pull path is tested against. The first next starts seq; each
// yield hands control back to the caller of next; next reports false
// once seq has returned; a panic or Goexit in seq resurfaces in the
// next or stop call that was running it; stop makes a pending yield
// return false so seq can unwind, and a seq never started never runs.
func chanPull(seq func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	resume := make(chan struct{})
	parked := make(chan struct{})
	var (
		started, done, seqDone, goexit bool
		panicV                         any
	)
	yield := func(struct{}) bool {
		if done {
			return false
		}
		parked <- struct{}{}
		<-resume
		return !done
	}
	body := func() {
		defer func() {
			if r := recover(); r != nil {
				panicV = r
			} else if !seqDone {
				goexit = true
			}
			done = true
			parked <- struct{}{}
		}()
		seq(yield)
		seqDone = true
	}
	// run hands control to seq until it yields or returns, then
	// re-raises whatever ended it abnormally.
	run := func() {
		if started {
			resume <- struct{}{}
		} else {
			started = true
			go body()
		}
		<-parked
		if panicV != nil {
			panic(panicV)
		}
		if goexit {
			runtime.Goexit()
		}
	}
	next = func() (struct{}, bool) {
		if done {
			return struct{}{}, false
		}
		run()
		return struct{}{}, !done
	}
	stop = func() {
		if done {
			return
		}
		done = true
		if started {
			run()
		}
	}
	return next, stop
}
