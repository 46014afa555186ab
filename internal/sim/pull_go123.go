//go:build go1.23

package sim

import "iter"

// pull starts seq as a coroutine (see Proc): next runs it until it
// yields or returns, switching goroutines directly instead of through
// the scheduler.
func pull(seq func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(seq)
}
