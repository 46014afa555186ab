package mpi

// Alternative collective algorithms kept for the ablation studies in
// DESIGN.md: production MPIs switch algorithms by message size and
// communicator size; comparing them on the modelled fabric shows why.

// BcastLinear is the naive broadcast: the root sends to every rank in
// turn. O(P) root-serialised messages versus the binomial tree's
// O(log P) critical path — the ablation partner of Bcast.
func (r *Rank) BcastLinear(root int, data any, bytes int) any {
	defer r.beginColl()()
	n := r.Size()
	r.nextColl()
	if n == 1 {
		return data
	}
	if r.id == root {
		for i := 0; i < n; i++ {
			if i != root {
				r.Send(i, r.collTag(0), data, bytes)
			}
		}
		return data
	}
	return r.Recv(root, r.collTag(0)).Data
}

// AllreduceRingF64 is a ring allreduce over one float64: P-1 steps of
// neighbour exchange, each rank adding its contribution, followed by
// P-1 propagation steps. Bandwidth-optimal for large vectors, but for
// tiny payloads its 2(P-1) latency hops lose badly to the binomial
// tree — the trade-off the ablation bench quantifies.
func (r *Rank) AllreduceRingF64(v float64, op func(a, b float64) float64) float64 {
	defer r.beginColl()()
	n := r.Size()
	r.nextColl()
	if n == 1 {
		return v
	}
	next := (r.id + 1) % n
	prev := (r.id - 1 + n) % n
	acc := v
	// Reduce phase: pass a running partial around the ring.
	cur := v
	for s := 0; s < n-1; s++ {
		r.Send(next, r.collTag(s), cur, 8)
		m := r.Recv(prev, r.collTag(s))
		cur = m.Data.(float64)
		acc = op(acc, cur)
	}
	// acc now holds the full reduction on every rank (each rank saw
	// every other rank's value exactly once).
	return acc
}
