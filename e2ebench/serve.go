package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Request counts per round. A serve-cold round is coldBlocksPerRound
// blocks of the cold mix (1168 requests, about 2.5 s on a 2-CPU host)
// and a serve-warm round warmBlocksPerRound registry-size blocks (3500
// requests, about 0.5 s): enough requests for a per-round p99 and
// enough rounds in a run for stable medians.
const (
	coldBlocksPerRound = 8
	warmBlocksPerRound = 100
	// warmupRequests are sent, and checked, untimed at the start of
	// every serve-warm round.
	warmupRequests = 500
	// warmKeyBlocks is K, the keys per experiment serve-warm fills the
	// store with before its rounds.
	warmKeyBlocks = 7
	// zipfS is the skew of serve-warm's key popularity.
	zipfS = 1.1
)

// request is one POST /run/{id}?wait=1&quick=1 with a seed salt.
type request struct {
	id   string
	seed uint64
	url  string // path and query
}

func newRequest(id string, seed uint64) request {
	return request{id, seed, fmt.Sprintf("/run/%s?wait=1&quick=1&seed=%d", id, seed)}
}

// coldMix is one block of serve-cold's experiment mix: a 1/rank
// (zipf) popularity over the registry in its listed order, the paper's
// own figures and tables first, with experiment r appearing
// round(len(ids)/r) times, at least once. Every experiment is asked
// for, so p99 is set by the simulating ones as with a uniform mix; but
// with a uniform mix the cheap experiments are only 60% of requests
// and the median falls on the gap between them and the simulating
// ones, where it swung by a quarter between runs of the same code.
// With this mix the median is a typical cheap request: HTTP, a
// table computed in microseconds and the store write.
func coldMix(ids []string) []string {
	var block []string
	for i, id := range ids {
		for k := 0; k < max(1, (2*len(ids)+i+1)/(2*(i+1))); k++ {
			block = append(block, id)
		}
	}
	return block
}

// freshRequests draws n never-seen keys: passes over block in seeded
// order, so every run holds the same mix whatever the seed, each
// request with a fresh random seed salt.
func freshRequests(rng *rand.Rand, block []string, n int) []request {
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		for _, i := range rng.Perm(len(block)) {
			if len(reqs) < n {
				reqs = append(reqs, newRequest(block[i], rng.Uint64()))
			}
		}
	}
	return reqs
}

// serveInputs is what every serve workload starts from: the quick
// golden sections, the registry ids, the cold mix and the seeded
// generator.
type serveInputs struct {
	want map[string]string
	ids  []string // registry order
	cold []string // coldMix(ids)
	rng  *rand.Rand
}

func (b *bench) serveInputs() (*serveInputs, error) {
	golden, err := readGolden(b.root, "golden-quick.txt")
	if err != nil {
		return nil, err
	}
	want, ids, err := goldenSections(golden)
	if err != nil {
		return nil, err
	}
	return &serveInputs{want, ids, coldMix(ids), rand.New(rand.NewSource(b.seed))}, nil
}

// round is one serve round's measurements.
type round struct {
	setup, wall, rssMB float64
	lat                []float64 // ms per request
	// ref is the host reference taken before a serve-warm round; the
	// zero value leaves the round unscaled.
	ref hostRef
}

// serveStats turns a run's rounds into the end-to-end metrics. Each
// is the median over rounds of that round's value, so a host stall
// that hits a few rounds does not move it; a round holds enough
// requests for at least ten beyond its 99th percentile. A round with
// a host reference is scaled by it (see refRequests).
func serveStats(rounds []round) metrics {
	var walls, rates, p50s, p99s, setups, rss []float64
	for _, r := range rounds {
		k := r.ref.scale()
		walls = append(walls, r.wall/k.rate)
		rates = append(rates, float64(len(r.lat))/r.wall*k.rate)
		p50s = append(p50s, median(r.lat)*k.p50)
		p99s = append(p99s, percentile(r.lat, 0.99)*k.p99)
		setups = append(setups, r.setup)
		rss = append(rss, r.rssMB)
	}
	ms := metrics{}
	ms.set("wall_s", median(walls), "s")
	ms.set("rps", median(rates), "1/s")
	ms.set("p50_ms", median(p50s), "ms")
	ms.set("p99_ms", median(p99s), "ms")
	ms.set("setup_s", median(setups), "s")
	ms.set("peak_rss_mb", median(rss), "MB")
	return ms
}

// runServeCold is the serve-cold workload: rounds of a fresh mhpcd,
// each answering blocks of never-seen keys. mhpcd runs at its
// defaults, whose result store is in memory: with a -store-dir every
// write fsyncs, and on a shared host the fsync latency drifted enough
// between runs (p50_ms 2.8 to 4.8 ms across ten runs, spread 25 to
// 47%) that no bound could hold it. The disk write path is measured by
// the store.put_ms and store.ledger_commit_ms probes instead.
func runServeCold(b *bench) (metrics, error) {
	in, err := b.serveInputs()
	if err != nil {
		return nil, err
	}
	var rounds []round
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < b.seconds {
		r, err := b.coldRound(in, nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	return serveStats(rounds), nil
}

func (b *bench) coldRound(in *serveInputs, layer metrics) (round, error) {
	return b.serveRound("", in, nil, freshRequests(in.rng, in.cold, coldBlocksPerRound*len(in.cold)), false, layer)
}

// runServeWarm is the serve-warm workload: fill a store with K keys,
// then rounds of mhpcd restarted on it, each answering a zipf draw of
// those keys after an untimed warm-up draw, and each preceded by a
// host reference sample (see refRequests).
func runServeWarm(b *bench) (metrics, error) {
	in, err := b.serveInputs()
	if err != nil {
		return nil, err
	}
	dir, draw, err := b.fillStore(in)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ref, _, err := b.launch("e2ebench", "-refserve")
	if err != nil {
		return nil, err
	}
	defer ref.kill()
	if _, err := refRound(ref, draw(warmupRequests)); err != nil {
		return nil, err
	}
	var rounds []round
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < b.seconds {
		h, err := refRound(ref, draw(refRequests))
		if err != nil {
			return nil, err
		}
		r, err := b.warmRound(dir, in, draw, nil)
		if err != nil {
			return nil, err
		}
		r.ref = h
		rounds = append(rounds, r)
	}
	printRaw(rounds)
	return serveStats(rounds), nil
}

// warmRound is one serve-warm round: warmupRequests checked but
// untimed requests, so the timed ones meet a daemon past its first
// allocations and collections, then the timed draw.
func (b *bench) warmRound(dir string, in *serveInputs, draw func(n int) []request, layer metrics) (round, error) {
	return b.serveRound(dir, in, draw(warmupRequests), draw(warmBlocksPerRound*len(in.ids)), true, layer)
}

// fillStore runs one mhpcd on a new store and requests K never-seen
// keys through HTTP (each checked like any other request), then
// returns the store and a seeded zipf sampler over those keys whose
// popularity order is a seeded permutation.
func (b *bench) fillStore(in *serveInputs) (string, func(n int) []request, error) {
	dir, err := os.MkdirTemp(b.scratch, "store-")
	if err != nil {
		return "", nil, err
	}
	keys := freshRequests(in.rng, in.ids, warmKeyBlocks*len(in.ids))
	if _, err := b.serveRound(dir, in, nil, keys, false, nil); err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	order := in.rng.Perm(len(keys))
	zipf := rand.NewZipf(in.rng, zipfS, 1, uint64(len(keys)-1))
	draw := func(n int) []request {
		reqs := make([]request, n)
		for i := range reqs {
			reqs[i] = keys[order[zipf.Uint64()]]
		}
		return reqs
	}
	return dir, draw, nil
}

// traceServeCold and traceServeWarm are the serve passes of a traced
// run: one round of the workload with /metrics scraped around it.
func traceServeCold(b *bench) (metrics, error) {
	in, err := b.serveInputs()
	if err != nil {
		return nil, err
	}
	layer := metrics{}
	_, err = b.coldRound(in, layer)
	return layer, err
}

func traceServeWarm(b *bench) (metrics, error) {
	in, err := b.serveInputs()
	if err != nil {
		return nil, err
	}
	dir, draw, err := b.fillStore(in)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	layer := metrics{}
	_, err = b.warmRound(dir, in, draw, layer)
	return layer, err
}

// serveLayer names the mhpcd counters a serve pass reports, from the
// /metrics delta over the round.
var serveLayer = []struct{ name, counter string }{
	{"serve.runs", "mhpc_serve_runs_total"},
	{"serve.cache_hits", "mhpc_serve_cache_hits_total"},
	{"serve.rejected", "mhpc_serve_rejected_total"},
	{"store.hits", "mhpc_store_hits_total"},
	{"store.misses", "mhpc_store_misses_total"},
}

// serveRound starts mhpcd on storeDir, drives warmup and then reqs
// through two closed-loop clients, and stops it; only reqs are timed.
// Each response must carry the golden output for its id and the
// expected cached flag. With layer non-nil, /metrics is scraped before
// and after reqs (outside the timed window) and the deltas are written
// to layer.
func (b *bench) serveRound(storeDir string, in *serveInputs, warmup, reqs []request, cached bool, layer metrics) (round, error) {
	d, setup, err := b.startDaemon(storeDir)
	if err != nil {
		return round{}, err
	}
	check := func(r request, body []byte, status int, err error) string {
		return checkRun(r, body, status, err, in.want[r.id], cached)
	}
	if len(warmup) > 0 {
		_, _, fails := drive(d.base, warmup, check)
		b.outcomes(len(warmup), fails)
	}
	var before map[string]float64
	if layer != nil {
		if before, err = scrape(d.base); err != nil {
			d.kill()
			return round{}, err
		}
	}
	lat, wall, fails := drive(d.base, reqs, check)
	b.outcomes(len(reqs), fails)
	if layer != nil {
		after, err := scrape(d.base)
		if err != nil {
			d.kill()
			return round{}, err
		}
		for _, c := range serveLayer {
			layer.set(c.name, after[c.counter]-before[c.counter], "count")
		}
		layer.set("serve.server_p50_ms", histogramP50(before, after, "mhpc_serve_request_latency_ns")/1e6, "ms")
	}
	rss, err := d.stop(b)
	if err != nil {
		return round{}, err
	}
	return round{setup: setup, wall: wall, rssMB: rss, lat: lat}, nil
}

// daemon is one running server: mhpcd, or the reference server.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  bytes.Buffer
	exited  chan struct{}
	waitErr error
}

// startDaemon execs mhpcd at its defaults (sequential engine, given
// store directory, a free loopback port) and returns once /healthz
// answers 200, with the time that took from exec.
func (b *bench) startDaemon(storeDir string) (*daemon, float64, error) {
	args := []string{"-intra", "1"}
	if storeDir != "" {
		args = append(args, "-store-dir", storeDir)
	}
	return b.launch("mhpcd", args...)
}

// launch execs a server from the benchmark's bin directory with -addr
// set to a free loopback port, and returns once its /healthz answers
// 200, with the time that took from exec.
func (b *bench) launch(name string, args ...string) (*daemon, float64, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	d.cmd = b.command(name, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = &d.stderr
	health := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	for {
		if resp, err := health.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0).Seconds(), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("%s exited before it was healthy: %v: %s", name, d.waitErr, tail(d.stderr.String()))
		case <-b.ctx.Done():
			d.kill()
			return nil, 0, b.ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("%s not healthy after 30 s: %s", name, tail(d.stderr.String()))
		}
	}
}

// stop reads mhpcd's peak RSS, sends SIGTERM and waits for the drain.
// The peak is read from the live process rather than from rusage,
// which would also count the load generator's memory (see maxRSSMB);
// the drain after it allocates next to nothing. mhpcd exits 0 after a
// clean drain; anything else is a failed operation.
func (d *daemon) stop(b *bench) (float64, error) {
	rss, err := vmHWMMB(d.cmd.Process.Pid)
	if err != nil {
		d.kill()
		return 0, err
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return 0, fmt.Errorf("mhpcd did not drain within 30 s")
	}
	if err := b.childErr(d.waitErr); err != nil {
		return 0, err
	}
	b.outcome(d.waitErr == nil, "mhpcd shutdown: %v: %s", d.waitErr, tail(d.stderr.String()))
	return rss, nil
}

// kill stops the daemon without a drain, for error paths.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// runEnvelope is the part of mhpcd's run response the checks read.
type runEnvelope struct {
	ID     string `json:"id"`
	Seed   uint64 `json:"seed"`
	Cached bool   `json:"cached"`
	Output string `json:"output"`
}

// checkFunc returns why a response to r is wrong, or "" when it is
// right.
type checkFunc func(r request, body []byte, status int, err error) string

// drive sends reqs in order from jobs closed-loop clients, each
// sending its next request when the previous response is read, and
// returns the per-request latencies (ms), the wall time from first
// send to last response, and one message per failed request.
func drive(base string, reqs []request, check checkFunc) (lat []float64, wall float64, fails []string) {
	tr := &http.Transport{MaxIdleConnsPerHost: jobs, MaxConnsPerHost: jobs, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	lat = make([]float64, len(reqs))
	// The client collects no garbage while it sends: a collection here
	// would add its pause to the requests in flight, and on a 2-CPU
	// host it would take a CPU from mhpcd. A round allocates a few tens
	// of MB at most.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < jobs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A body already checked for this request is correct when
			// it comes back byte-identical, which spares decoding
			// every hit of a hot serve-warm key.
			verified := map[string][]byte{}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				start := time.Now()
				body, status, err := post(client, base+r.url)
				lat[i] = float64(time.Since(start).Nanoseconds()) / 1e6
				if err == nil && bytes.Equal(body, verified[r.url]) {
					continue
				}
				msg := check(r, body, status, err)
				if msg == "" {
					verified[r.url] = body
					continue
				}
				mu.Lock()
				fails = append(fails, msg)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, time.Since(t0).Seconds(), fails
}

func post(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Post(url, "", nil)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// checkRun returns why a run response is wrong, or "" when it is
// right: status 200 (a 429 or 504 is a failure), the id and seed
// echoed, the expected cached flag, and the golden output.
func checkRun(r request, body []byte, status int, err error, want string, cached bool) string {
	if err != nil {
		return fmt.Sprintf("POST %s: %v", r.url, err)
	}
	if status != http.StatusOK {
		return fmt.Sprintf("POST %s: status %d: %s", r.url, status, tail(string(body)))
	}
	var env runEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Sprintf("POST %s: decoding response: %v", r.url, err)
	}
	switch {
	case env.ID != r.id || env.Seed != r.seed:
		return fmt.Sprintf("POST %s: response is for %s seed %d", r.url, env.ID, env.Seed)
	case env.Cached != cached:
		return fmt.Sprintf("POST %s: cached=%v, want %v", r.url, env.Cached, cached)
	case want == "" || env.Output != want:
		return fmt.Sprintf("POST %s: output (%d bytes) differs from the golden section (%d bytes)", r.url, len(env.Output), len(want))
	}
	return ""
}

// scrape reads mhpcd's Prometheus exposition into sample -> value.
// Counters that have never moved are absent and read as 0.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("GET /metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		samples[line[:i]] = v
	}
	return samples, sc.Err()
}

// histogramP50 is the median of the observations a Prometheus
// histogram gained between two scrapes, interpolated linearly inside
// the bucket that holds it.
func histogramP50(before, after map[string]float64, name string) float64 {
	bs, was := buckets(after, name), buckets(before, name)
	total := after[name+"_count"] - before[name+"_count"]
	if total <= 0 {
		return 0
	}
	lo, below := 0.0, 0.0
	for _, bk := range bs {
		// mhpcd emits cumulative buckets only up to its highest
		// occupied one, so a bound missing from the earlier scrape held
		// what that scrape's highest bucket held.
		n := bk.n
		for _, w := range was {
			if w.le <= bk.le {
				n = bk.n - w.n
			}
		}
		if n >= total/2 && n > below {
			return lo + (bk.le-lo)*(total/2-below)/(n-below)
		}
		lo, below = bk.le, n
	}
	return math.NaN()
}

// bucket is one cumulative histogram sample: n observations <= le.
type bucket struct{ le, n float64 }

// buckets returns a scrape's finite cumulative buckets of one
// histogram, in increasing bound order.
func buckets(samples map[string]float64, name string) []bucket {
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range samples {
		if s, ok := strings.CutPrefix(k, prefix); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(s, `"}`), 64)
			if err == nil && !math.IsInf(le, 1) {
				bs = append(bs, bucket{le, v})
			}
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	return bs
}
