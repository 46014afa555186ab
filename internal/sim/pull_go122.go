//go:build !go1.23

package sim

// pull starts seq as a coroutine (see Proc). Toolchains without
// iter.Pull get the goroutine and channel pair of chanPull.
func pull(seq func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return chanPull(seq)
}
