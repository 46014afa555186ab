package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// pullScript is one coroutine scenario: the body yields `yields` times
// and then ends as `end` says ("return", "panic" or "goexit"); the
// caller drives it with `calls`, one byte per call: 'n' next, 's' stop,
// 'a' raise the aborting mark and next — the Proc teardown path, where
// the body unwinds with procAbort and recovers it in its own defer.
type pullScript struct {
	name   string
	yields int
	end    string
	calls  string
	want   []string
}

// runPullScript plays s against one pull implementation on a fresh
// goroutine (a Goexit in the body must end that goroutine, not the
// test's) and returns the interleaved log of both sides.
func runPullScript(impl func(func(func(struct{}) bool)) (func() (struct{}, bool), func()), s pullScript) []string {
	var log []string
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	aborting := false
	body := func(yield func(struct{}) bool) {
		logf("start")
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procAbort); !ok {
					panic(r)
				}
				logf("unwound")
			}
		}()
		if aborting {
			panic(procAbort{})
		}
		for i := 0; i < s.yields; i++ {
			ok := yield(struct{}{})
			logf("yield %d -> %v", i, ok)
			if aborting {
				panic(procAbort{})
			}
		}
		switch s.end {
		case "panic":
			panic("boom")
		case "goexit":
			runtime.Goexit()
		}
		logf("return")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		goexit := true
		defer func() {
			if goexit {
				logf("caller goexit")
			}
		}()
		next, stop := impl(body)
		call := func(c byte) {
			defer func() {
				if r := recover(); r != nil {
					logf("%c panicked: %v", c, r)
				}
			}()
			switch c {
			case 'a':
				aborting = true
				fallthrough
			case 'n':
				_, ok := next()
				logf("next -> %v", ok)
			case 's':
				stop()
				logf("stopped")
			}
		}
		for i := 0; i < len(s.calls); i++ {
			call(s.calls[i])
		}
		goexit = false
	}()
	<-done
	return log
}

// The iter.Pull coroutine and the goroutine+channel twin must be
// indistinguishable: same interleaving, same results, same panics.
func TestPullMatchesChannelTwin(t *testing.T) {
	for _, s := range []pullScript{
		{"yields", 2, "return", "nnnn", []string{
			"start", "next -> true", "yield 0 -> true", "next -> true",
			"yield 1 -> true", "return", "next -> false", "next -> false"}},
		{"panic surfaces at next", 1, "panic", "nnn", []string{
			"start", "next -> true", "yield 0 -> true", "n panicked: boom", "next -> false"}},
		{"goexit surfaces at next", 1, "goexit", "nnn", []string{
			"start", "next -> true", "yield 0 -> true", "caller goexit"}},
		{"abort parked", 3, "return", "na", []string{
			"start", "next -> true", "yield 0 -> true", "unwound", "next -> false"}},
		{"abort unstarted", 3, "return", "an", []string{
			"start", "unwound", "next -> false", "next -> false"}},
		{"stop parked", 3, "return", "nsn", []string{
			"start", "next -> true", "yield 0 -> false", "yield 1 -> false",
			"yield 2 -> false", "return", "stopped", "next -> false"}},
		{"stop unstarted", 1, "return", "sn", []string{"stopped", "next -> false"}},
		{"stop after completion", 0, "return", "nss", []string{
			"start", "return", "next -> false", "stopped", "stopped"}},
	} {
		t.Run(s.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			got := runPullScript(pull, s)
			twin := runPullScript(chanPull, s)
			if !reflect.DeepEqual(got, s.want) {
				t.Errorf("pull:\n got %q\nwant %q", got, s.want)
			}
			if !reflect.DeepEqual(twin, s.want) {
				t.Errorf("chanPull:\n got %q\nwant %q", twin, s.want)
			}
			// Every scenario ends with the body finished or never
			// started, so neither implementation may leave a goroutine.
			waitForGoroutines(t, base)
		})
	}
}
