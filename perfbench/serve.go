package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"manywalks/internal/graph"
	"manywalks/internal/netsim"
	"manywalks/internal/serve"
	"manywalks/internal/walk"
)

// The serve workload is open-loop traffic into an in-process serve.Server:
// Poisson arrivals of light walk queries with a small share of heavy
// cover estimates, each timed from the moment it was due. It runs at one
// nominal rate, then as closed-loop batches, then up a fixed ladder of
// rates.
const (
	serveGraph  = "margulis:24"
	serveOrigin = int32(0)
	lightK      = 1
	lightTTL    = 1 << 20
	heavyK      = 16
	heavyTrials = 8
	heavyShare  = 0.01
	heavyRounds = 1 << 20

	// The rates are fixed here, never derived from a measurement.
	nominalRate = 4000.0
	// p99Limit is the light-query p99 a ladder rate must meet: far above
	// the p99 an idle server shows and above the host's stalls (rung p99s
	// of 20-80 ms below capacity on a busy shared VM), so a rung fails when
	// the server falls behind its arrivals rather than when the machine
	// stalls.
	p99Limit = 250 * time.Millisecond
	// requestDeadline bounds every request from its due time; a later
	// answer counts as failed.
	requestDeadline = 2 * time.Second
	// A rung whose in-flight requests exceed this many seconds of
	// arrivals has a growing backlog; its generator stops early.
	backlogSeconds = 0.25
	// rungWindow is the span a rung's p99 is taken over: the rung's p99 is
	// the median of its windows' p99s, so a stall of the host fails the
	// windows it falls in, not the rung, while a growing queue fails the
	// later half of them.
	rungWindow = 100 * time.Millisecond

	// Each batch is batchClients concurrent clients sending batchPerClient
	// requests each, back to back; wall_s is the median batch time and qps
	// the median batch throughput. A batch lasts about 0.2 s and single
	// batches scatter by ±30%, so the run repeats them for batchShare of
	// its window.
	minBatches     = 5
	batchClients   = 256
	batchPerClient = 64

	// Shares of the window: the nominal rate, then the batches; the rate
	// ladder takes the rest.
	nominalShare = 0.20
	batchShare   = 0.25
	// heavyWindow is the span one heavy-latency median is taken over: at
	// the nominal rate about 40 heavy requests arrive in it.
	heavyWindow = time.Second

	serveSample  = 256 // light queries the layer ladder replays
	serveHeavies = 16  // heavy requests the layer ladder replays
)

// ladderRates are the offered rates (requests/s) max_qps is read from:
// 40000/s up to 245000/s, 10% apart. Rates far below capacity would only
// shorten the rungs that decide max_qps.
var ladderRates = func() []float64 {
	rates := make([]float64, 20)
	for i := range rates {
		rates[i] = 40000 * math.Pow(1.1, float64(i))
	}
	return rates
}()

// shapeTargets are the 8 target shapes light queries draw from.
var shapeTargets = func() []int32 {
	t := make([]int32, 8)
	for j := range t {
		t[j] = int32(300 + 31*j)
	}
	return t
}()

// mixReq is one request of the serve mix. It holds no pointers, so the
// requests and outcomes a run keeps cost the garbage collector, which
// shares the processors with the server, nothing to scan.
type mixReq struct {
	seed   uint64
	target int32 // the light query's target vertex
	heavy  bool
}

func drawMix(gen *rand.Rand) mixReq {
	if gen.Float64() < heavyShare {
		return mixReq{heavy: true, seed: gen.Uint64()}
	}
	return drawQuery(gen)
}

func drawQuery(gen *rand.Rand) mixReq {
	return mixReq{target: shapeTargets[gen.IntN(len(shapeTargets))], seed: gen.Uint64()}
}

func (r mixReq) query() queryReq {
	return queryReq{graph: serveGraph, origin: serveOrigin, k: lightK, ttl: lightTTL, target: r.target, seed: r.seed}
}

func (r mixReq) est() estReq {
	return estReq{graph: serveGraph, start: serveOrigin, target: -1, k: heavyK,
		trials: heavyTrials, seed: r.seed, maxSteps: heavyRounds}
}

func (r mixReq) steps(o outcome) float64 {
	if r.heavy {
		return float64(heavyK) * o.est.Summary.Mean * float64(o.est.Summary.N)
	}
	return float64(lightK * o.query.Rounds)
}

// outcome is one request's answer and timing; like mixReq it holds no
// pointers.
type outcome struct {
	query   netsim.QueryResult
	est     walk.Estimate
	latency time.Duration // from due time (open loop) or submission to answer
	service time.Duration // from the call into the server to its return
	late    time.Duration // how late the generator released it
	failed  failure
}

type failure uint8

const (
	succeeded failure = iota
	refused           // serve.ErrOverloaded
	errored
)

func (o outcome) good() bool { return o.failed == succeeded && o.latency <= requestDeadline }

type serveW struct {
	cfg      config
	graphs   map[string]*graph.Graph
	srv      *serve.Server
	ref      *walk.Engine // standalone engine the answers are checked against
	buildS   []float64
	compileS []float64
	calls    int
	errMu    sync.Mutex
	errs     []string // the first request errors, for the failure report
	// The last window's nominal phase and what it showed of each layer.
	nominal  []mixReq
	nomStats serve.Stats
	wait     float64
	late     float64
	refused  int
}

func newServe(cfg config) workload { return &serveW{cfg: cfg} }

func (s *serveW) headline() string { return "p50_ms" }

// hostScaled: the closed-loop batches and the rate ladder run the server
// at capacity, so they time work on the cores. The batches last only
// seconds of a host whose speed drifts within minutes, so measure scales
// them by the probe samples of their own phase; the ladder's max_qps, read
// from rungs that stall-driven p99s make noisy, takes the whole run's. The
// nominal-rate latencies and the set-up's warm-up requests are mostly
// timer waits (the generator's wake-ups and the coalescer's gather
// window), whose period the host's speed does not set; they are reported
// as measured.
func (s *serveW) hostScaled() scaling { return scaling{stretch: []string{"max_qps"}} }

func (s *serveW) setup() error {
	t0 := time.Now()
	g, err := graph.ParseSpec(serveGraph)
	if err != nil {
		return err
	}
	s.graphs = map[string]*graph.Graph{serveGraph: g}
	t1 := time.Now()
	if s.ref, err = compileEngine(g, nil); err != nil {
		return err
	}
	t2 := time.Now()
	if s.srv, err = newServer(s.graphs, serve.Options{Workers: s.cfg.workers}, nil); err != nil {
		return err
	}
	gen := rand.New(rand.NewPCG(s.cfg.seed, 0))
	for _, t := range shapeTargets {
		r := drawQuery(gen)
		r.target = t
		if o := s.call(r); o.failed != succeeded {
			return fmt.Errorf("warm-up query failed: %q", s.firstErrs())
		}
	}
	if o := s.call(mixReq{heavy: true, seed: gen.Uint64()}); o.failed != succeeded {
		return fmt.Errorf("warm-up estimate failed: %q", s.firstErrs())
	}
	s.buildS = append(s.buildS, t1.Sub(t0).Seconds())
	s.compileS = append(s.compileS, t2.Sub(t1).Seconds())
	return nil
}

func (s *serveW) close() {
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
}

// call submits r and returns its answer, timed from the call.
func (s *serveW) call(r mixReq) outcome {
	ctx := context.Background()
	t0 := time.Now()
	var o outcome
	var err error
	if r.heavy {
		e := r.est()
		o.est, err = s.srv.CoverTime(ctx, serve.CoverTimeRequest{Graph: e.graph, Start: e.start, K: e.k,
			Trials: e.trials, Seed: e.seed, MaxSteps: e.maxSteps})
	} else {
		o.query, err = s.srv.WalkQuery(ctx, r.query().serveReq())
	}
	o.service = time.Since(t0)
	o.latency = o.service
	if err != nil {
		o.failed = errored
		if errors.Is(err, serve.ErrOverloaded) {
			o.failed = refused
		}
		s.errMu.Lock()
		if len(s.errs) < keptFailures {
			s.errs = append(s.errs, err.Error())
		}
		s.errMu.Unlock()
	}
	return o
}

func (s *serveW) firstErrs() []string {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return append([]string(nil), s.errs...)
}

// openLoop offers reqs at their due times (offsets from the start) and
// returns every outcome. One goroutine releases every arrival that is due
// per wake-up, so timer granularity shows as lateness instead of drift.
// It stops releasing when the backlog exceeds maxInflight and returns the
// outcomes of the requests it released.
func (s *serveW) openLoop(reqs []mixReq, due []time.Duration, maxInflight int64, tr *tracer) []outcome {
	out := make([]outcome, len(reqs))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	i := 0
	for i < len(reqs) && inflight.Load() <= maxInflight {
		now := time.Since(start)
		if due[i] > now {
			time.Sleep(due[i] - now)
			now = time.Since(start)
		}
		for ; i < len(reqs) && due[i] <= now; i++ {
			inflight.Add(1)
			wg.Add(1)
			go func(i int, late time.Duration) {
				defer wg.Done()
				defer inflight.Add(-1)
				c0 := time.Now()
				o := s.call(reqs[i])
				o.latency, o.late = time.Since(start.Add(due[i])), late
				tr.leaf(0, spanName(reqs[i]), c0)
				out[i] = o
			}(i, now-due[i])
		}
	}
	wg.Wait()
	return out[:i]
}

func spanName(r mixReq) string {
	if r.heavy {
		return "serve.Server.CoverTime"
	}
	return "serve.Server.WalkQuery"
}

// poisson draws arrivals at rate per second for d.
func poisson(gen *rand.Rand, rate float64, d time.Duration) ([]mixReq, []time.Duration) {
	var reqs []mixReq
	var due []time.Duration
	for t := gen.ExpFloat64() / rate; t < d.Seconds(); t += gen.ExpFloat64() / rate {
		reqs = append(reqs, drawMix(gen))
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return reqs, due
}

// tail returns the light queries' latency median and p99, each the median
// over windows of span. A failed or late request counts as missing every
// limit.
func tail(reqs []mixReq, due []time.Duration, out []outcome, span time.Duration) (p50, p99 float64) {
	var lat []float64
	var at []time.Duration
	for i, o := range out {
		if reqs[i].heavy {
			continue
		}
		x := ms(o.latency)
		if !o.good() {
			x = ms(requestDeadline)
		}
		lat, at = append(lat, x), append(at, due[i])
	}
	return windowed(lat, at, 0.5, span), windowed(lat, at, 0.99, span)
}

// verify counts every answer: light ones must equal the standalone engine
// run, heavy ones the standalone estimator, and none may have failed or
// missed its deadline. It returns each light query's standalone run time.
func (s *serveW) verify(reqs []mixReq, out []outcome, tl *tally) []time.Duration {
	standalone := make([]time.Duration, len(out))
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(out); i += s.cfg.workers {
				standalone[i] = s.check(reqs[i], out[i], tl)
			}
		}(w)
	}
	wg.Wait()
	return standalone
}

func (s *serveW) check(r mixReq, o outcome, tl *tally) time.Duration {
	why := func(got, want any) func() string {
		return func() string {
			return fmt.Sprintf("%+v: served %+v (failure %d, latency %v; first errors %q), standalone %+v",
				r, got, o.failed, o.latency, s.firstErrs(), want)
		}
	}
	if r.heavy {
		want, err := r.est().estimate(s.graphs[serveGraph], r.est().mc(1))
		tl.check(o.good() && err == nil && o.est == want, why(o.est, want))
		return 0
	}
	t0 := time.Now()
	want := r.query().standalone(s.ref)
	took := time.Since(t0)
	tl.check(o.good() && o.query == want, why(o.query, want))
	return took
}

func (s *serveW) measure(window time.Duration, tr *tracer, tl *tally) (map[string]float64, error) {
	s.calls++
	gen := rand.New(rand.NewPCG(s.cfg.seed, uint64(s.calls)))
	m := map[string]float64{}

	// Nominal rate. Each phase's answers are checked as soon as it ends,
	// outside every timed window, so no phase keeps the last one's
	// outcomes alive.
	reqs, due := poisson(gen, nominalRate, time.Duration(float64(window)*nominalShare))
	s.cfg.host.sample()
	before := s.srv.Stats()
	out := s.openLoop(reqs, due, int64(nominalRate*backlogSeconds), tr)
	after := s.srv.Stats()
	if len(out) < len(reqs) {
		return nil, fmt.Errorf("nominal rate %.0f/s built a backlog", nominalRate)
	}
	m["p50_ms"], m["p99_ms"] = tail(reqs, due, out, tailWindow)
	var heavy []float64
	var heavyAt []time.Duration
	for i, o := range out {
		if o.good() && reqs[i].heavy {
			heavy, heavyAt = append(heavy, ms(o.latency)), append(heavyAt, due[i])
		}
	}
	m["heavy_p50_ms"] = windowed(heavy, heavyAt, 0.5, heavyWindow)
	s.nominal = reqs
	s.nomStats = statsDelta(before, after)
	s.observeNominal(reqs, out, s.verify(reqs, out, tl))

	// Closed-loop batches: many concurrent clients, timed to the last
	// answer, for batchShare of the window (checks excluded).
	var walls, rates, qps, probes []float64
	var batchTime time.Duration
	for b := 0; b < minBatches || batchTime < time.Duration(float64(window)*batchShare); b++ {
		breqs := make([]mixReq, batchClients*batchPerClient)
		for i := range breqs {
			breqs[i] = drawMix(gen)
		}
		bout := make([]outcome, len(breqs))
		var wg sync.WaitGroup
		probes = append(probes, s.cfg.host.sample())
		t0 := time.Now()
		for c := 0; c < batchClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c * batchPerClient; i < (c+1)*batchPerClient; i++ {
					bout[i] = s.call(breqs[i])
				}
			}(c)
		}
		wg.Wait()
		batchTime += time.Since(t0)
		wall := time.Since(t0).Seconds()
		steps := 0.0
		for i, r := range breqs {
			steps += r.steps(bout[i])
		}
		walls, rates, qps = append(walls, wall), append(rates, steps/wall), append(qps, float64(len(breqs))/wall)
		s.verify(breqs, bout, tl)
	}
	m["wall_s"], m["walker_steps_per_s"], m["qps"] = quantile(walls, 0.5), quantile(rates, 0.5), quantile(qps, 0.5)
	fmt.Fprintf(s.cfg.log, "serve batches as measured: wall_s=%.4g qps=%.4g, probe %.3f ns/step; walls %.3f\n",
		m["wall_s"], m["qps"], mean(probes), walls)
	toReferenceBy(m, []string{"wall_s", "walker_steps_per_s", "qps"}, mean(probes))

	// The rate ladder: each rung offers its rate for an equal slice of the
	// rest of the window, and passes if its light p99 meets p99Limit with
	// no growing backlog; two failing rungs in a row end it. max_qps is the
	// rate where the p99 reaches the limit, interpolated (log p99 against
	// rate) between the highest passing rung and the rung after it.
	rungDur := time.Duration(float64(window) * (1 - nominalShare - batchShare) / float64(len(ladderRates)))
	p99s := make([]float64, 0, len(ladderRates))
	best := -1
	for fails, r := 0, 0; r < len(ladderRates) && fails < 2; r++ {
		rate := ladderRates[r]
		rreqs, rdue := poisson(gen, rate, rungDur)
		offered := len(rreqs)
		s.cfg.host.sample()
		rout := s.openLoop(rreqs, rdue, int64(rate*backlogSeconds), tr)
		rreqs, rdue = rreqs[:len(rout)], rdue[:len(rout)]
		_, p99 := tail(rreqs, rdue, rout, rungWindow)
		if len(rout) < offered {
			p99 = ms(requestDeadline) // a backlog misses every limit
		}
		p99s = append(p99s, p99)
		s.verify(rreqs, rout, tl)
		fmt.Fprintf(s.cfg.log, "serve ladder: %6.0f/s offered, %d of %d released, light p99 %.3f ms\n", rate, len(rout), offered, p99)
		if p99 > ms(p99Limit) {
			fails++
			continue
		}
		fails, best = 0, r
	}
	m["max_qps"] = limitRate(p99s, best)

	fmt.Fprintf(s.cfg.log, "serve: %d requests at %.0f/s nominal, %d batches of %d: %s\n",
		len(reqs), nominalRate, len(walls), batchClients*batchPerClient, joinf(m))
	return m, nil
}

// observeNominal keeps what the nominal phase showed of the layers below:
// the coalescer's wait (served time minus the standalone engine run),
// refusals and the generator's lateness.
func (s *serveW) observeNominal(reqs []mixReq, out []outcome, standalone []time.Duration) {
	var wait, late []float64
	s.refused = 0
	for i, o := range out {
		late = append(late, ms(o.late))
		if o.failed == refused {
			s.refused++
		}
		if !reqs[i].heavy && o.good() {
			wait = append(wait, ms(o.service-standalone[i]))
		}
	}
	s.wait, s.late = quantile(wait, 0.5), quantile(late, 0.99)
}

func (s *serveW) layers(tr *tracer, tl *tally) (map[string]float64, error) {
	var sample ladderSample
	for _, r := range s.nominal {
		if r.heavy && len(sample.ests) < serveHeavies {
			sample.ests = append(sample.ests, r.est())
		} else if !r.heavy && len(sample.queries) < serveSample {
			sample.queries = append(sample.queries, r.query())
		}
	}
	lr, err := runLadder(s.cfg, s.graphs, nil, sample, nil, tr, tl)
	if err != nil {
		return nil, err
	}
	m := lr.metrics()
	m["serve.wait_ms"] = s.wait
	m["serve.lanes_per_pass"] = lanesPerPass(s.nomStats)
	m["serve.overloaded"] = float64(s.refused)
	m["serve.engine_misses"] = float64(s.nomStats.EngineMisses)
	m["load.late_ms"] = s.late
	m["graph.build_s"] = quantile(s.buildS, 0.5)
	m["walk.compile_s"] = quantile(s.compileS, 0.5)
	m["walk.compiles"] = float64(s.nomStats.EngineMisses) // the server compiles only on an engine-cache miss
	fmt.Fprintf(s.cfg.log, "serve layers: %s\n", joinf(m))
	return m, nil
}

// limitRate is the offered rate at which the light p99 reaches p99Limit:
// interpolated between ladder rung best (the highest that met it) and the
// next rung when that one was run, the nominal rate when no rung met it.
func limitRate(p99s []float64, best int) float64 {
	switch {
	case best < 0:
		return nominalRate
	case best+1 >= len(p99s):
		return ladderRates[best]
	}
	lo, hi := math.Log(p99s[best]), math.Log(p99s[best+1])
	f := (math.Log(ms(p99Limit)) - lo) / (hi - lo)
	return ladderRates[best] + f*(ladderRates[best+1]-ladderRates[best])
}
