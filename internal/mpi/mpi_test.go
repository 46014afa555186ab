package mpi

import (
	"math"
	"testing"
	"testing/quick"

	"mobilehpc/internal/cluster"
	"mobilehpc/internal/interconnect"
	"mobilehpc/internal/soc"
)

func testCluster(n int) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes:       n,
		Platform:    soc.Tegra2,
		FGHz:        1.0,
		Proto:       interconnect.TCPIP(),
		LinkGbps:    1.0,
		SwitchLatUS: 2.0,
	})
}

func TestSendRecvDeliversPayload(t *testing.T) {
	cl := testCluster(2)
	var got string
	Run(cl, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, "hello", 5)
		} else {
			m := r.Recv(0, 7)
			got = m.Data.(string)
			if m.Bytes != 5 || m.Src != 0 || m.Tag != 7 {
				t.Errorf("msg metadata wrong: %+v", m)
			}
		}
	})
	if got != "hello" {
		t.Errorf("payload = %q", got)
	}
}

func TestPingPongLatencyMatchesModel(t *testing.T) {
	cl := testCluster(2)
	const reps = 10
	var elapsed float64
	Run(cl, 2, func(r *Rank) {
		if r.ID() == 0 {
			start := r.Now()
			for i := 0; i < reps; i++ {
				r.Send(1, 1, nil, 0)
				r.Recv(1, 2)
			}
			elapsed = r.Now() - start
		} else {
			for i := 0; i < reps; i++ {
				r.Recv(0, 1)
				r.Send(0, 2, nil, 0)
			}
		}
	})
	oneWay := elapsed / (2 * reps) * 1e6
	// Tegra 2 + TCP/IP small message: ~100 µs one-way (plus ~4 µs of
	// switch and wire overheads in the simulated star network).
	if oneWay < 95 || oneWay > 115 {
		t.Errorf("simulated one-way latency = %.1f µs, want ~100-110", oneWay)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	cl := testCluster(2)
	var got []int
	Run(cl, 2, func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 5; i++ {
				r.Send(1, 3, i, 8)
			}
		} else {
			for i := 0; i < 5; i++ {
				got = append(got, r.Recv(0, 3).Data.(int))
			}
		}
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("messages reordered: %v", got)
		}
	}
}

func TestRecvWildcards(t *testing.T) {
	cl := testCluster(3)
	var sum int
	Run(cl, 3, func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < 2; i++ {
				m := r.Recv(AnySource, AnyTag)
				sum += m.Data.(int)
			}
		default:
			r.Send(0, r.ID(), r.ID()*10, 8)
		}
	})
	if sum != 30 {
		t.Errorf("sum = %d, want 30", sum)
	}
}

// A wildcard-tag receive must not see collective traffic: rank 0
// enters a Bcast (whose message reaches rank 1 first) and then sends a
// point-to-point message, and rank 1's Recv(0, AnyTag) must take the
// point-to-point one, leaving the Bcast message for rank 1's own Bcast.
// Both matching paths are covered: the receive already posted when the
// messages arrive (deliver), and the messages already pending when the
// receive is posted (match).
func TestAnyTagSkipsCollectiveTraffic(t *testing.T) {
	for _, c := range []struct {
		name  string
		delay float64 // rank 1 computes this long before receiving
	}{{"posted", 0}, {"pending", 1}} {
		t.Run(c.name, func(t *testing.T) {
			var got *Msg
			var bcast any
			Run(testCluster(2), 2, func(r *Rank) {
				if r.ID() == 0 {
					r.Bcast(0, "coll", 8)
					r.Send(1, 7, "p2p", 8)
					return
				}
				r.Compute(c.delay)
				got = r.Recv(0, AnyTag)
				if got.Tag != 7 {
					// The wildcard stole the Bcast message; drain the
					// point-to-point one so the run still terminates.
					r.Recv(0, 7)
					return
				}
				bcast = r.Bcast(0, nil, 8)
			})
			if got.Tag != 7 || got.Data != "p2p" {
				t.Fatalf("Recv(0, AnyTag) got tag %d data %v, want the point-to-point message (tag 7)", got.Tag, got.Data)
			}
			if bcast != "coll" {
				t.Errorf("Bcast on rank 1 = %v, want %q", bcast, "coll")
			}
		})
	}
}

func TestTagMatchingSelective(t *testing.T) {
	cl := testCluster(2)
	var order []int
	Run(cl, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, 100, 8)
			r.Send(1, 2, 200, 8)
		} else {
			// Receive tag 2 first even though tag 1 arrives first.
			order = append(order, r.Recv(0, 2).Data.(int))
			order = append(order, r.Recv(0, 1).Data.(int))
		}
	})
	if order[0] != 200 || order[1] != 100 {
		t.Errorf("selective matching broken: %v", order)
	}
}

func TestDeadlockPanics(t *testing.T) {
	cl := testCluster(2)
	defer func() {
		if recover() == nil {
			t.Error("deadlocked run did not panic")
		}
	}()
	Run(cl, 2, func(r *Rank) {
		r.Recv(AnySource, AnyTag) // nobody sends
	})
}

func TestBarrierSynchronises(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		cl := testCluster(n)
		after := make([]float64, n)
		maxBefore := 0.0
		Run(cl, n, func(r *Rank) {
			// Stagger arrival times.
			r.Compute(float64(r.ID()) * 0.01)
			if t := r.Now(); t > maxBefore {
				maxBefore = t
			}
			r.Barrier()
			after[r.ID()] = r.Now()
		})
		for i, a := range after {
			if a < maxBefore {
				t.Errorf("n=%d rank %d left barrier at %v before last arrival %v",
					n, i, a, maxBefore)
			}
		}
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 9, 16} {
		for root := 0; root < n; root += max(1, n/3) {
			cl := testCluster(n)
			got := make([]int, n)
			Run(cl, n, func(r *Rank) {
				var v any
				if r.ID() == root {
					v = 4242
				}
				got[r.ID()] = r.Bcast(root, v, 8).(int)
			})
			for i, v := range got {
				if v != 4242 {
					t.Fatalf("n=%d root=%d rank %d got %d", n, root, i, v)
				}
			}
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	add := func(a, b float64) float64 { return a + b }
	for _, n := range []int{1, 2, 5, 8, 13} {
		cl := testCluster(n)
		want := float64(n*(n+1)) / 2
		var atRoot float64
		all := make([]float64, n)
		Run(cl, n, func(r *Rank) {
			v := float64(r.ID() + 1)
			s := r.ReduceF64(0, v, add)
			if r.ID() == 0 {
				atRoot = s
			}
			all[r.ID()] = r.AllreduceF64(v, add)
		})
		if math.Abs(atRoot-want) > 1e-12 {
			t.Errorf("n=%d: reduce = %v, want %v", n, atRoot, want)
		}
		for i, v := range all {
			if math.Abs(v-want) > 1e-12 {
				t.Errorf("n=%d rank %d: allreduce = %v, want %v", n, i, v, want)
			}
		}
	}
}

func TestReduceVecAndAllreduceVec(t *testing.T) {
	add := func(a, b float64) float64 { return a + b }
	n := 6
	cl := testCluster(n)
	results := make([][]float64, n)
	Run(cl, n, func(r *Rank) {
		v := []float64{float64(r.ID()), 1, 2}
		results[r.ID()] = r.AllreduceVecF64(v, add)
	})
	want := []float64{15, 6, 12} // sum of ids 0..5, n*1, n*2
	for i := range results {
		for j := range want {
			if math.Abs(results[i][j]-want[j]) > 1e-12 {
				t.Fatalf("rank %d: %v, want %v", i, results[i], want)
			}
		}
	}
}

func TestGatherScatter(t *testing.T) {
	n := 5
	cl := testCluster(n)
	var gathered []any
	scattered := make([]int, n)
	Run(cl, n, func(r *Rank) {
		g := r.Gather(2, r.ID()*3, 8)
		if r.ID() == 2 {
			gathered = g
		}
		var parts []any
		if r.ID() == 1 {
			parts = make([]any, n)
			for i := range parts {
				parts[i] = i * 7
			}
		}
		scattered[r.ID()] = r.Scatter(1, parts, 8).(int)
	})
	for i, v := range gathered {
		if v.(int) != i*3 {
			t.Errorf("gather[%d] = %v", i, v)
		}
	}
	for i, v := range scattered {
		if v != i*7 {
			t.Errorf("scatter[%d] = %v", i, v)
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 4, 8, 3, 6} {
		cl := testCluster(n)
		ok := true
		Run(cl, n, func(r *Rank) {
			parts := make([]any, n)
			for i := range parts {
				parts[i] = r.ID()*100 + i
			}
			out := r.Alltoall(parts, 8)
			for i := range out {
				if out[i].(int) != i*100+r.ID() {
					ok = false
				}
			}
		})
		if !ok {
			t.Errorf("n=%d: alltoall misdelivered", n)
		}
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	cl := testCluster(1)
	end := Run(cl, 1, func(r *Rank) {
		r.Compute(2.5)
	})
	if math.Abs(end-2.5) > 1e-12 {
		t.Errorf("end = %v, want 2.5", end)
	}
}

func TestRunStatsCountsTraffic(t *testing.T) {
	cl := testCluster(2)
	comm, _ := RunStats(cl, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, nil, 1000)
		} else {
			r.Recv(0, 1)
		}
	})
	if comm.BytesSent != 1000 || comm.Msgs != 1 {
		t.Errorf("stats: %d bytes, %d msgs", comm.BytesSent, comm.Msgs)
	}
}

func TestSendPanics(t *testing.T) {
	cases := []func(r *Rank){
		func(r *Rank) { r.Send(r.ID(), 0, nil, 1) }, // self
		func(r *Rank) { r.Send(99, 0, nil, 1) },     // out of range
		func(r *Rank) { r.Send(1, 0, nil, -5) },     // negative size
	}
	for i, bad := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			cl := testCluster(2)
			Run(cl, 2, func(r *Rank) {
				if r.ID() == 0 {
					bad(r)
				}
			})
		}()
	}
}

// Property: Allreduce of max over random per-rank values equals the
// true maximum, for any communicator size 1..9.
func TestAllreduceMaxProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		n := len(vals)
		if n == 0 || n > 9 {
			return true
		}
		cl := testCluster(n)
		want := 0.0
		for _, v := range vals {
			if float64(v) > want {
				want = float64(v)
			}
		}
		ok := true
		Run(cl, n, func(r *Rank) {
			got := r.AllreduceF64(float64(vals[r.ID()]),
				func(a, b float64) float64 { return math.Max(a, b) })
			if got != want {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// testClusterTree builds an n-node Tibidabo-topology cluster for
// scale tests.
func testClusterTree(n int) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Nodes:       n,
		Platform:    soc.Tegra2,
		FGHz:        1.0,
		Proto:       interconnect.TCPIP(),
		LinkGbps:    1.0,
		UplinkGbps:  4.0,
		SwitchRadix: 48,
		SwitchLatUS: 2.0,
	})
}

func TestCommMatrix(t *testing.T) {
	cl := testCluster(3)
	comm, _ := RunStats(cl, 3, func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 1, nil, 100)
			r.Send(2, 1, nil, 200)
		case 1:
			r.Recv(0, 1)
			r.Send(2, 2, nil, 50)
		case 2:
			r.Recv(0, 1)
			r.Recv(1, 2)
		}
	})
	m := comm.CommMatrix()
	want := [3][3]int64{{0, 100, 200}, {0, 0, 50}, {0, 0, 0}}
	for s := 0; s < 3; s++ {
		for d := 0; d < 3; d++ {
			if m[s][d] != want[s][d] {
				t.Errorf("matrix[%d][%d] = %d, want %d", s, d, m[s][d], want[s][d])
			}
		}
	}
}

func TestCommMatrixIncludesCollectives(t *testing.T) {
	cl := testCluster(4)
	comm, _ := RunStats(cl, 4, func(r *Rank) {
		var v any
		if r.ID() == 0 {
			v = 1
		}
		r.Bcast(0, v, 1024)
	})
	total := int64(0)
	for _, row := range comm.CommMatrix() {
		for _, b := range row {
			total += b
		}
	}
	if total != comm.BytesSent || total == 0 {
		t.Errorf("matrix total %d != BytesSent %d", total, comm.BytesSent)
	}
}

// Ranks that disagree on a broadcast's root, as the 2-D HPL grid's row
// and column broadcasts over the whole communicator do, send messages
// that nobody receives. Once the receiver has moved past that
// collective they can never match, so none may stay pending.
func TestFinishedCollectiveMessagesDropped(t *testing.T) {
	const p, q, steps = 4, 4, 12
	comm, _ := RunStats(testCluster(p*q), p*q, func(r *Rank) {
		row, col := r.ID()/q, r.ID()%q
		for k := 0; k < steps; k++ {
			r.Bcast(row*q+k%q, nil, 4096)
			r.Bcast(k%p*q+col, nil, 4096)
			r.Compute(1e-4 * float64(r.ID()%3))
		}
		r.Barrier()
	})
	for _, r := range comm.ranks {
		if len(r.pending) != 0 {
			t.Errorf("rank %d holds %d unmatched messages after the run", r.id, len(r.pending))
		}
	}
}
