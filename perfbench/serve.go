package main

// The serve workload: an in-process asapd (server.New + Handler) on a
// loopback listener with a fresh store, driven by a closed loop of two
// clients that each wait for their reply. Every pass performs asapsmoke's
// exchange for each small Fig8 spec: submit it once as a miss (trace
// generation, simulation, envelope encode, store write), then once more
// as a hit (parse, canonical form, hash, store read). Each client owns a
// disjoint half of the specs, so every disposition is known in advance
// and no request joins another's in-flight run.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"asap/internal/config"
	"asap/internal/harness"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/runspec"
	"asap/internal/server"
	"asap/internal/workload"
)

var serveModels = []string{model.NameBaseline, model.NameHOPSEP, model.NameHOPSRP, model.NameASAPEP, model.NameASAPRP, model.NameEADR}

// The traffic mix is cmd/asapsmoke's: a spec of its default size (2
// threads x 40 ops over workload.Default) submitted twice, the first
// time a miss and the second a hit. An op is one such exchange.
const (
	serveClients = 2
	serveRepeats = 2 // submissions per spec: one miss, then one hit
	serveThreads = 2
	serveOps     = 40
)

// plan is one pass: the specs, their request bodies, and each client's
// request sequence (spec indices; a spec's first appearance is its miss).
type plan struct {
	specs   []runspec.RunSpec
	bodies  [][]byte
	clients [][]int
}

// servePlan builds pass p's plan. Each pass uses its own generator seed,
// so its misses generate fresh traces instead of reusing the process's
// trace cache.
func servePlan(seed uint64, pass int) (*plan, error) {
	r := rng.New(seed*65537 + uint64(pass))
	pl := &plan{clients: make([][]int, serveClients)}
	p := workload.Default()
	p.Threads, p.OpsPerThread, p.Seed = serveThreads, serveOps, r.Uint64()
	for _, wl := range harness.Workloads() {
		for _, mn := range serveModels {
			s := runspec.New(wl, mn, p, config.Default())
			body, err := json.Marshal(s)
			if err != nil {
				return nil, err
			}
			pl.specs = append(pl.specs, s)
			pl.bodies = append(pl.bodies, body)
		}
	}
	owner := shuffled(r, len(pl.specs))
	for i, si := range owner {
		c := i % serveClients
		for k := 0; k < serveRepeats; k++ {
			pl.clients[c] = append(pl.clients[c], si)
		}
	}
	for c, seq := range pl.clients {
		perm := shuffled(r, len(seq))
		out := make([]int, len(seq))
		for i, j := range perm {
			out[i] = seq[j]
		}
		pl.clients[c] = out
	}
	return pl, nil
}

func shuffled(r *rng.RNG, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// daemon is one running in-process asapd.
type daemon struct {
	srv   *server.Server
	http  *http.Server
	url   string
	dir   string
	done  chan error
	httpc *http.Client
}

// startDaemon builds a server over a fresh store, serves it on a loopback
// port, and returns once a health check succeeds; the time from
// server.New to that health check is the workload's set-up. Creating the
// empty store directory is the benchmark's own preparation, not timed.
func startDaemon(tmp string) (*daemon, time.Duration, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv, err := server.New(server.Options{StoreDir: dir, Parallel: 1})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		srv:   srv,
		http:  &http.Server{Handler: srv.Handler()},
		url:   "http://" + ln.Addr().String(),
		dir:   dir,
		done:  make(chan error, 1),
		httpc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	go func() { d.done <- d.http.Serve(ln) }()
	for {
		resp, err := d.httpc.Get(d.url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("asapd did not become healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(t0), nil
}

// stop shuts the server down, waits for its serve loop to exit, and
// removes its store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.httpc.CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.httpc.Get(d.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// reply is one completed request as its client saw it.
type reply struct {
	spec int  // index into the plan's specs
	miss bool // the plan expected a miss
	lat  time.Duration
	err  error
}

// passResult is one pass of the closed loop.
type passResult struct {
	replies []reply
	dur     time.Duration
}

// runPass drives the plan against d with one goroutine per client and
// checks every response: status 200, the planned X-Asap-Cache
// disposition, and hit bytes equal to the miss bytes of the same spec.
func runPass(d *daemon, pl *plan) passResult {
	missBody := make([][]byte, len(pl.specs)) // written only by the spec's owner
	out := make([][]reply, len(pl.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, seq := range pl.clients {
		wg.Add(1)
		go func(c int, seq []int) {
			defer wg.Done()
			seen := make(map[int]bool)
			for _, si := range seq {
				rp := reply{spec: si, miss: !seen[si]}
				seen[si] = true
				t := time.Now()
				body, disp, err := d.submit(pl.bodies[si])
				rp.lat = time.Since(t)
				want := "hit"
				if rp.miss {
					want = "miss"
				}
				switch {
				case err != nil:
					rp.err = err
				case disp != want:
					rp.err = fmt.Errorf("%s: X-Asap-Cache %q, planned %q", pl.specs[si], disp, want)
				case rp.miss:
					missBody[si] = body
				case !bytes.Equal(body, missBody[si]):
					rp.err = fmt.Errorf("%s: hit bytes differ from miss bytes", pl.specs[si])
				}
				out[c] = append(out[c], rp)
			}
		}(c, seq)
	}
	wg.Wait()
	res := passResult{dur: time.Since(t0)}
	for _, rs := range out {
		res.replies = append(res.replies, rs...)
	}
	return res
}

func (d *daemon) submit(body []byte) ([]byte, string, error) {
	resp, err := d.httpc.Post(d.url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST /v1/runs: status %d: %s", resp.StatusCode, strings.TrimSpace(string(got)))
	}
	return got, resp.Header.Get("X-Asap-Cache"), nil
}

// pass is one closed-loop pass on its own daemon.
type pass struct {
	d    *daemon
	plan *plan
	res  passResult
}

// servePass runs pass p on a fresh daemon and files its requests as
// operations. The daemon is left running; the caller stops it.
func servePass(b *bench, p int) (*pass, error) {
	pl, err := servePlan(b.seed, p)
	if err != nil {
		return nil, err
	}
	d, _, err := startDaemon(b.tmp)
	if err != nil {
		return nil, err
	}
	res := runPass(d, pl)
	for _, rp := range res.replies {
		b.op(rp.err)
	}
	return &pass{d: d, plan: pl, res: res}, nil
}

func runServe(b *bench) error {
	// Set-up is starting a daemon on a fresh store until it answers a
	// health check, timed over repeated start/stop cycles before any
	// traffic, so that every run times it on the same small heap.
	setup, err := repeatTimed(func() (time.Duration, error) {
		d, took, err := startDaemon(b.tmp)
		if err != nil {
			return 0, err
		}
		return took, d.stop()
	})
	if err != nil {
		return err
	}
	var exchanges, hits, misses []float64
	var total time.Duration
	passes, requests := 0, 0
	deadline := time.Now().Add(b.seconds)
	for passes < 3 || time.Now().Before(deadline) {
		runtime.GC() // each pass starts from a collected heap
		ps, err := servePass(b, passes)
		if err != nil {
			return err
		}
		if err := ps.d.stop(); err != nil {
			return err
		}
		exchange := make([]time.Duration, len(ps.plan.specs))
		for _, rp := range ps.res.replies {
			exchange[rp.spec] += rp.lat
			if rp.miss {
				misses = append(misses, ms(rp.lat))
			} else {
				hits = append(hits, ms(rp.lat))
			}
		}
		for _, d := range exchange {
			exchanges = append(exchanges, ms(d))
		}
		requests += len(ps.res.replies)
		total += ps.res.dur
		passes++
	}
	rate := float64(len(exchanges)) / total.Seconds()
	b.set("setup_s", "s", setup.Seconds())
	b.set("op_p50_ms", "ms", median(exchanges))
	b.set("ops_per_s", "1/s", rate)
	b.set("req_per_s", "1/s", rate*serveRepeats)
	ht, hp := tail(hits)
	mt, mp := tail(misses)
	b.set("hit_p50_ms", "ms", median(hits))
	b.set("hit_tail_ms", "ms", ht)
	b.set("miss_p50_ms", "ms", median(misses))
	b.set("miss_tail_ms", "ms", mt)
	b.count("serve.hits_per_pass", uint64(len(hits)/passes))
	b.count("serve.misses_per_pass", uint64(len(misses)/passes))
	b.printf("serve: %d passes, %d clients closed loop; op = one spec's miss+hit exchange (n=%d); %d requests, hit share %.3f; hit tail = p%.2f of %d, miss tail = p%.2f of %d",
		passes, serveClients, len(exchanges), requests, float64(len(hits))/float64(requests), hp, len(hits), mp, len(misses))
	return nil
}

// traceServe runs one pass, then reads the server's own accounting and
// times the hit path's calls from outside. All tracing happens after the
// pass, so trace_overhead_pct is 0 by construction.
func traceServe(b *bench) error {
	gc := startGoCost()
	ps, err := servePass(b, 0)
	if err != nil {
		return err
	}
	gc.stop(b)
	err = scrapeServer(b, ps.d, ps.plan)
	if serr := ps.d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	// The layer counts and costs beneath the misses: replay the pass's
	// specs.
	l, err := replay(ps.plan.specs)
	if err != nil {
		return err
	}
	l.emit(b)
	return nil
}

// scrapeServer reads asapd's own span distributions and counters, then
// times runspec.Parse, RunSpec.Hash and Store.Get from outside on the
// pass's specs.
func scrapeServer(b *bench, d *daemon, pl *plan) error {
	prom, err := d.get("/metrics")
	if err != nil {
		return err
	}
	spans := map[string]string{
		"asap_run_queue_wait_millis": "server.queue_wait_ms_p50",
		"asap_run_simulate_millis":   "server.simulate_ms_p50",
		"asap_run_encode_micros":     "server.encode_us_p50",
		"asap_run_store_micros":      "server.store_us_p50",
	}
	sc := bufio.NewScanner(bytes.NewReader(prom))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), `{quantile="0.5"} `)
		if metric, want := spans[name]; ok && want {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return fmt.Errorf("/metrics: %s: %w", name, err)
			}
			unit := "ms"
			if strings.HasSuffix(metric, "_us_p50") {
				unit = "us"
			}
			b.set(metric, unit, v)
			delete(spans, name)
		}
	}
	if len(spans) > 0 {
		return fmt.Errorf("/metrics lacks span distributions %v", spans)
	}

	raw, err := d.get("/v1/stats")
	if err != nil {
		return err
	}
	var st struct {
		Server struct {
			CacheHits     uint64 `json:"cacheHits"`
			CacheMisses   uint64 `json:"cacheMisses"`
			InflightJoins uint64 `json:"inflightJoins"`
			Failures      uint64 `json:"failures"`
		} `json:"server"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	b.count("server.hits", st.Server.CacheHits)
	b.count("server.misses", st.Server.CacheMisses)
	b.count("server.inflight", st.Server.InflightJoins)
	b.count("server.failures", st.Server.Failures)
	want := uint64(len(pl.specs))
	b.check(st.Server.CacheMisses == want && st.Server.CacheHits == want*(serveRepeats-1) && st.Server.InflightJoins == 0,
		"asapd counted %d hits, %d misses, %d joins; planned %d, %d, 0",
		st.Server.CacheHits, st.Server.CacheMisses, st.Server.InflightJoins, want*(serveRepeats-1), want)

	var parse, hash, get []float64
	for _, body := range pl.bodies {
		t0 := time.Now()
		s, err := runspec.Parse(body)
		t1 := time.Now()
		if err != nil {
			return err
		}
		h, err := s.Hash()
		t2 := time.Now()
		if err != nil {
			return err
		}
		_, ok, err := d.srv.Store().Get(h)
		t3 := time.Now()
		if err != nil {
			return err
		}
		b.check(ok, "%s: not in the store after its miss", s)
		parse = append(parse, us(t1.Sub(t0)))
		hash = append(hash, us(t2.Sub(t1)))
		get = append(get, us(t3.Sub(t2)))
	}
	b.set("runspec.parse_us", "us", median(parse))
	b.set("runspec.hash_us", "us", median(hash))
	b.set("server.store_get_us", "us", median(get))
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
