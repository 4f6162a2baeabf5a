package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"graph2par"
	"graph2par/internal/cache"
	"graph2par/internal/serve"
)

// maxQueue is the admission-queue watermark the benchmark adds to
// graph2serve's defaults (whose watermark of 0 sheds whenever every slot
// is busy). It sits far above any queue the schedules build, so shedding
// — a failed operation — signals a real overload.
const maxQueue = 256

// liveServer is an in-process serve.Server listening on loopback.
type liveServer struct {
	engine *graph2par.Engine
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
	client *http.Client
}

// startServer is one serve set-up: checkpoint load, NewEngine, the server
// and its listener, until /v1/healthz answers. It returns the set-up time
// in seconds.
func (b *bench) startServer() (*liveServer, float64, error) {
	runtime.GC() // as in timeSetup
	t0 := time.Now()
	e, err := graph2par.NewEngine(b.engineConfig())
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &liveServer{
		engine: e,
		srv:    serve.NewWithConfig(e, serve.ServeConfig{MaxInflight: b.nproc, MaxQueue: maxQueue}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     b.nproc,
			MaxIdleConnsPerHost: b.nproc,
			DisableCompression:  true,
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.hs.RegisterOnShutdown(s.srv.Close)
	go func() { s.served <- s.hs.Serve(ln) }()
	for {
		status, _, err := s.get("/v1/healthz")
		if err == nil && status == http.StatusOK {
			return s, time.Since(t0).Seconds(), nil
		}
		if time.Since(t0) > 10*time.Second {
			return nil, 0, errors.Join(fmt.Errorf("server did not come up: status %d: %v", status, err), s.stop())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down and waits for its serve loop to return.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return err
}

func (s *liveServer) get(path string) (int, []byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// post sends one /v1/analyze envelope and reads the whole response.
func (s *liveServer) post(envelope []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+"/v1/analyze", "application/json", bytes.NewReader(envelope))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// envelope is the /v1/analyze request body for one source.
func envelope(src string) []byte {
	data, _ := json.Marshal(struct {
		Source string `json:"source"`
	}{src}) // a string always marshals
	return data
}

// analyzeBody mirrors the /v1/analyze response: the server encodes it
// with json.Encoder, reports stripped of their DOT text.
type analyzeBody struct {
	Loops   int                    `json:"loops"`
	Reports []graph2par.LoopReport `json:"reports"`
}

// expectedBody encodes reports exactly as the server would answer them.
func expectedBody(reports []graph2par.LoopReport) []byte {
	out := make([]graph2par.LoopReport, len(reports))
	copy(out, reports)
	for i := range out {
		out[i].DOT = ""
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(analyzeBody{Loops: len(out), Reports: out}) // writes to a buffer
	return buf.Bytes()
}

// sent is one open-loop request's outcome.
type sent struct {
	lat    float64 // ms from the scheduled send time to the last response byte
	lag    float64 // ms the generator dispatched it late
	status int
	hash   [32]byte
	err    error
}

// openLoop sends sched[i] at its due time whether or not earlier requests
// have finished, and times each from its due time, so a stall raises the
// latency of every request scheduled behind it. send gets the arrival's
// source index and returns the status and the whole body.
//
// The dispatcher sleeps in nanosleep on its own thread rather than in
// time.Sleep: an idle Go runtime waits for timers in epoll with
// millisecond resolution, which would add up to a millisecond of the
// generator's own lateness to every request.
func openLoop(sched []arrival, send func(src int) (int, []byte, error)) ([]sent, time.Duration) {
	out := make([]sent, len(sched))
	var wg sync.WaitGroup
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(d.Nanoseconds())
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		lag := time.Since(due)
		wg.Add(1)
		go func(i, src int, due time.Time, lag time.Duration) {
			defer wg.Done()
			status, body, err := send(src)
			r := sent{lat: msSince(due), lag: float64(lag.Nanoseconds()) / 1e6, status: status, err: err}
			r.hash = sha256.Sum256(body)
			out[i] = r
		}(i, a.Src, due, lag)
	}
	wg.Wait()
	return out, time.Since(start)
}

// serveRun is a finished serve-* measured phase. The server is still up
// (the traced run replays handlers on it); the caller stops it.
type serveRun struct {
	o         *outcome
	live      *liveServer
	res       []sent
	elapsed   time.Duration
	loops     int // loops in OK responses
	cacheFrom cache.Stats
	cacheTo   cache.Stats
	queuedMax int
	shed      uint64
	cpu       cpuSample // measured-phase CPU and allocation counters
}

// runServe runs serve-miss or serve-hot: set-ups, cache fill or warm-up,
// the open-loop measured phase, and the output checks. With poll set,
// /v1/stats is sampled during the phase for the queue high-water mark.
func (b *bench) runServe(poll bool) (*serveRun, error) {
	o := newOutcome()
	var setups []float64
	throwaway := func(n int) error {
		for i := 0; i < n; i++ {
			s, t, err := b.startServer()
			if err != nil {
				return err
			}
			setups = append(setups, t)
			if err := s.stop(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := throwaway(minSetups / 2); err != nil {
		return nil, err
	}
	live, t, err := b.startServer()
	if err != nil {
		return nil, err
	}
	setups = append(setups, t)
	r := &serveRun{o: o, live: live}
	ok := false
	defer func() {
		if !ok {
			_ = live.stop() // the error being returned matters more
		}
	}()

	envelopes := make([][]byte, len(b.in.Sources))
	for i, src := range b.in.Sources {
		envelopes[i] = envelope(src)
	}
	// wantHash[src] is the body each request for that source must get;
	// match[src] and loopsOf[src] grade it.
	wantHash := make([][32]byte, len(b.in.Sources))
	match := make([]bool, len(b.in.Sources))
	loopsOf := make([]int, len(b.in.Sources))
	miss := b.workload == "serve-miss"
	if miss {
		if err := b.fillCache(live.engine); err != nil {
			return nil, err
		}
		// A few distinct requests open the connections and warm the
		// request path before timing.
		for i := 0; i < 4*b.nproc; i++ {
			src := marker(b.in.Progs[i%len(b.in.Progs)].Src, fmt.Sprintf("warm-up %d.%d", b.seed, i))
			if status, _, err := live.post(envelope(src)); err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("warm-up request: status %d: %v", status, err)
			}
		}
	} else {
		// Warm every working-set source into the cache; its response is
		// the body every later request for it must repeat. A second round
		// runs the hit path once before timing.
		for round := 0; round < 2; round++ {
			for k, env := range envelopes {
				status, body, err := live.post(env)
				if err != nil || status != http.StatusOK {
					return nil, fmt.Errorf("warm-up request: status %d: %v", status, err)
				}
				if round == 0 {
					var ab analyzeBody
					if err := json.Unmarshal(body, &ab); err != nil {
						return nil, fmt.Errorf("warm-up response: %w", err)
					}
					wantHash[k] = sha256.Sum256(body)
					match[k] = targetMatches(b.in.Progs[b.in.Of[k]], ab.Reports)
					loopsOf[k] = ab.Loops
				} else if sha256.Sum256(body) != wantHash[k] {
					return nil, fmt.Errorf("working-set source %d answered differently when cached", k)
				}
			}
		}
	}

	r.cacheFrom, _ = live.engine.CacheStats()
	var stopPoll func()
	if poll {
		stopPoll = r.pollStats(live)
	}
	cpu0 := readCPU()
	r.res, r.elapsed = openLoop(b.in.Sched, func(src int) (int, []byte, error) { return live.post(envelopes[src]) })
	r.cpu = readCPU().since(cpu0)
	if poll {
		stopPoll()
	}
	r.cacheTo, _ = live.engine.CacheStats()
	heap := liveHeapMB()
	runtime.KeepAlive(live)

	if miss {
		if err := b.expectDirect(r.res, wantHash, match, loopsOf); err != nil {
			return nil, err
		}
	}
	okN, hit := 0, 0
	var lat, lags []float64
	for i, res := range r.res {
		lat = append(lat, res.lat)
		lags = append(lags, res.lag)
		src := b.in.Sched[i].Src
		if res.err != nil || res.status != http.StatusOK || res.hash != wantHash[src] {
			continue
		}
		okN++
		r.loops += loopsOf[src]
		if match[src] {
			hit++
		}
	}
	if err := throwaway(minSetups - len(setups)); err != nil {
		return nil, err
	}
	o.Attempted, o.Failed = len(r.res), len(r.res)-okN
	lagP99, _ := percentile(lags, 99)
	fmt.Printf("schedule: %d requests over %.1f s, generator lag p99 %.3f ms\n", len(r.res), r.elapsed.Seconds(), lagP99)
	o.setSetup(setups, ", each until /v1/healthz answers")
	o.set("loops_per_s", float64(r.loops)/r.elapsed.Seconds(), "loops in checked responses per second of the measured phase")
	b.setLatency(o, lat, "per request, from its scheduled send time")
	o.set("ok_frac", float64(okN)/float64(len(r.res)), fmt.Sprintf("%d of %d responses 200 and byte-identical to the expected body", okN, len(r.res)))
	o.set("heap_mb", heap, fmt.Sprintf("live heap after GC, server and its %d cached reports reachable", r.cacheTo.Entries))
	accuracy := 0.0
	if okN > 0 {
		accuracy = float64(hit) / float64(okN)
	}
	o.set("accuracy", accuracy, "target loops of checked responses matching their label")
	o.set("rewritten_frac", 1, "rewrite stage off on this workload: no plans, reported as 1")
	ok = true
	return r, nil
}

// fillCache fills the server engine's cache to capacity before a
// serve-miss measured phase, so every miss of the phase evicts. The
// entries are real reports of the pool's programs (with private copies of
// their strings, so they weigh what computed entries weigh) installed
// under keys no request can produce.
func (b *bench) fillCache(e *graph2par.Engine) error {
	files := map[string]string{}
	for i, p := range b.in.Progs {
		files[fmt.Sprintf("fill-%d.c", i)] = p.Src
	}
	byName, err := e.AnalyzeFiles(files)
	if err != nil {
		return err
	}
	var reports []graph2par.LoopReport
	for _, name := range sortedKeys(byName) {
		reports = append(reports, byName[name]...)
	}
	for k := 0; k < 2*cacheCapacity; k++ {
		r := reports[k%len(reports)]
		r.Source, r.GraphStats, r.DOT = strings.Clone(r.Source), strings.Clone(r.GraphStats), strings.Clone(r.DOT)
		key := sha256.Sum256([]byte(fmt.Sprintf("perfbench fill %d.%d", b.seed, k)))
		e.InstallCached(hex.EncodeToString(key[:]), r)
	}
	if st, _ := e.CacheStats(); st.Entries < cacheCapacity {
		return fmt.Errorf("cache fill reached %d of %d entries", st.Entries, cacheCapacity)
	}
	return nil
}

// expectDirect computes serve-miss's expected bodies after the measured
// phase: for every pool program some request used, a direct
// AnalyzeSourceContext call on that request's exact source, on a separate
// engine without a cache so nothing the server computed is reused. The
// markers that make requests distinct are trailing comments, which change
// no report, so one expected body serves every request for a program.
func (b *bench) expectDirect(res []sent, wantHash [][32]byte, match []bool, loopsOf []int) error {
	cfg := b.engineConfig()
	cfg.CacheSize = 0
	e, err := graph2par.NewEngine(cfg)
	if err != nil {
		return err
	}
	type expect struct {
		hash  [32]byte
		match bool
		loops int
	}
	byProg := map[int]expect{}
	for i := range res {
		src := b.in.Sched[i].Src
		p := b.in.Of[src]
		x, ok := byProg[p]
		if !ok {
			reports, err := e.AnalyzeSourceContext(context.Background(), b.in.Sources[src])
			if err != nil {
				return fmt.Errorf("direct analysis of request %d: %w", i, err)
			}
			x = expect{sha256.Sum256(expectedBody(reports)), targetMatches(b.in.Progs[p], reports), len(reports)}
			byProg[p] = x
		}
		wantHash[src], match[src], loopsOf[src] = x.hash, x.match, x.loops
	}
	return nil
}

// pollStats samples /v1/stats every 50 ms on its own connection until the
// returned stop function is called, recording the admission queue's
// high-water mark and the shed count.
func (r *serveRun) pollStats(live *liveServer) (stop func()) {
	client := &http.Client{Transport: &http.Transport{}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			resp, err := client.Get(live.base + "/v1/stats")
			if err != nil {
				continue
			}
			var st struct {
				Admission struct {
					Queued int    `json:"queued"`
					Shed   uint64 `json:"shed"`
				} `json:"admission"`
			}
			if json.NewDecoder(resp.Body).Decode(&st) == nil {
				if st.Admission.Queued > r.queuedMax {
					r.queuedMax = st.Admission.Queued
				}
				r.shed = st.Admission.Shed
			}
			resp.Body.Close()
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		client.CloseIdleConnections()
	}
}
