package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
)

// serve-warm's requests take a fifth of a millisecond, so their
// timings follow the host more than the program: on the 2-CPU host
// the bounds were set on, which other tenants share, ten runs of the
// same code minutes apart spread by 20 to 30% in p50_ms, rps and
// wall_s, and by up to 114% in p99_ms, whose tail jumps to 2 to 3 ms
// whenever the host is busy. So serve-warm is timed against a host
// reference: before every round, while no mhpcd runs, the same two
// clients send refRequests requests to a reference server, a child
// process of this benchmark that answers each with a fixed run
// envelope. It shares the client, the loopback HTTP path and the Go
// runtime with mhpcd but no code of the program, which cannot move
// it. Each of the round's timings is scaled by the reference's own
// reading of it in the round before, relative to refNominal: p50_ms by
// its p50, p99_ms by its p99, rps and wall_s by its rate. setup_s
// (process start and journal replay, no HTTP) and peak_rss_mb are
// reported as measured. The output prints the reference and the raw
// values beside the scaled ones.
const refRequests = 2000

// hostRef is one reference sample: p50 and p99 latency (ms) and the
// rate (1/s) of refRequests requests.
type hostRef struct{ p50, p99, rate float64 }

// refNominal is what the reference reads on that host when its
// neighbours are quiet, so scaled values read close to raw ones there.
var refNominal = hostRef{p50: 0.11, p99: 0.41, rate: 14000}

// scale returns the factors that bring timings taken beside h to
// refNominal: p50 and p99 latencies are multiplied by the first two,
// rates by the third and wall times divided by it. A zero h gives
// factors of 1.
func (h hostRef) scale() hostRef {
	if h.rate == 0 {
		return hostRef{1, 1, 1}
	}
	return hostRef{refNominal.p50 / h.p50, refNominal.p99 / h.p99, refNominal.rate / h.rate}
}

// refOutput is the reference server's output, the size of a typical
// golden-quick section.
var refOutput = strings.Repeat("reference output line\n", 30)

// refServe is the reference server: every request gets status 200 and
// a run envelope holding refOutput, encoded per request as mhpcd
// encodes its own. It serves addr until SIGTERM.
func refServe(addr string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The seed is only echoed, as mhpcd echoes it; none reads 0.
		seed, _ := strconv.ParseUint(r.URL.Query().Get("seed"), 10, 64)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(runEnvelope{ID: r.URL.Path, Seed: seed, Cached: true, Output: refOutput})
	})}
	go func() {
		<-ctx.Done()
		srv.Shutdown(context.Background())
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "e2ebench reference server:", err)
		return 1
	}
	return 0
}

// refRound sends reqs to the reference server and returns its
// reading.
func refRound(ref *daemon, reqs []request) (hostRef, error) {
	lat, wall, fails := drive(ref.base, reqs, func(r request, _ []byte, status int, err error) string {
		if err != nil || status != http.StatusOK {
			return fmt.Sprintf("POST %s: status %d: %v", r.url, status, err)
		}
		return ""
	})
	if len(fails) > 0 {
		return hostRef{}, fmt.Errorf("reference server: %s", fails[0])
	}
	return hostRef{median(lat), percentile(lat, 0.99), float64(len(lat)) / wall}, nil
}

// printRaw prints the reference and the unscaled serve-warm metrics.
func printRaw(rounds []round) {
	var p50s, p99s, rates []float64
	raw := make([]round, len(rounds))
	for i, r := range rounds {
		p50s, p99s, rates = append(p50s, r.ref.p50), append(p99s, r.ref.p99), append(rates, r.ref.rate)
		raw[i] = r
		raw[i].ref = hostRef{}
	}
	fmt.Printf("host reference p50 %.4g ms, p99 %.4g ms, rate %.5g 1/s (medians of %d rounds; nominal %.4g ms, %.4g ms, %.5g 1/s); raw:",
		median(p50s), median(p99s), median(rates), len(rounds), refNominal.p50, refNominal.p99, refNominal.rate)
	ms := serveStats(raw)
	for _, n := range []string{"p50_ms", "p99_ms", "rps", "wall_s"} {
		fmt.Printf(" %s=%.6g", n, ms[n].Value)
	}
	fmt.Println()
}
