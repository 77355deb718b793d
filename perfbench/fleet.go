package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"manywalks/internal/graph"
	"manywalks/internal/serve"
	"manywalks/internal/walk"
)

// The fleet workload is a closed loop of keep-alive HTTP clients sending
// light walk queries through the shape-affinity cluster router onto two
// walkd replicas. Each request's shape comes from the client's seeded
// generator, so every client sends every shape. The replicas serve each
// request with its own engine run (walkd -naive): two clients give the
// coalescer nothing to batch, and its gather timer, which fires after
// about a millisecond here, would otherwise be most of every request and
// hide the HTTP and routing cost this workload is for.
const (
	fleetClients = 2           // HTTP connections, as many as the machine has cores
	fleetBatch   = 2048        // requests per batch; wall_s is the median batch time
	fleetSample  = 256         // requests the layer ladder replays
	fleetSegment = time.Second // closed-loop time between host probes
	// heavyQuantile splits off the heaviest requests by walker steps: the
	// fleet mix has no heavy class, so heavy_p50_ms is taken over its
	// longest walks.
	heavyQuantile = 0.99
)

type fleetW struct {
	cfg      config
	graphs   map[string]*graph.Graph
	fl       *fleet
	ref      *walk.Engine
	buildS   []float64
	compileS []float64
	calls    int
	// Observations of the last window, for the layer ladder.
	sample     []queryReq
	route      routeStats
	served     serve.Stats
	bytes      float64
	overloaded int
}

func newFleet(cfg config) workload { return &fleetW{cfg: cfg} }

func (f *fleetW) headline() string { return "p50_ms" }

// hostScaled: with the replicas on the naive path every request is HTTP,
// routing and one engine run, all work on the cores.
func (f *fleetW) hostScaled() scaling {
	return scaling{
		stretch: []string{"setup_s", "wall_s", "walker_steps_per_s", "qps", "max_qps"},
		request: []string{"p50_ms", "heavy_p50_ms"},
	}
}

func (f *fleetW) setup() error {
	t0 := time.Now()
	g, err := graph.ParseSpec(serveGraph)
	if err != nil {
		return err
	}
	f.graphs = map[string]*graph.Graph{serveGraph: g}
	t1 := time.Now()
	if f.ref, err = compileEngine(g, nil); err != nil {
		return err
	}
	t2 := time.Now()
	if f.fl, err = startFleet(f.graphs, serve.Options{Workers: f.cfg.workers, NoCoalesce: true}, fleetClients, nil); err != nil {
		return err
	}
	// Warm every shape on the path it will take.
	gen := rand.New(rand.NewPCG(f.cfg.seed, 0))
	for _, t := range shapeTargets {
		q := drawQuery(gen).query()
		q.target = t
		if code, body, err := f.fl.post(f.fl.front.url, "/v1/query", q.body()); err != nil || code != http.StatusOK {
			return fmt.Errorf("warm-up query: status %d err %v body %q", code, err, body)
		}
	}
	f.buildS = append(f.buildS, t1.Sub(t0).Seconds())
	f.compileS = append(f.compileS, t2.Sub(t1).Seconds())
	return nil
}

func (f *fleetW) close() {
	if f.fl != nil {
		f.fl.close()
		f.fl = nil
	}
}

// fleetCall is one request of the closed loop.
type fleetCall struct {
	q       queryReq
	code    int
	body    []byte
	err     error
	latency time.Duration
	done    time.Duration // completion, in client time from the start of the window
	reqLen  int
}

func (f *fleetW) servedStats() serve.Stats {
	var st serve.Stats
	for _, s := range f.fl.servers {
		x := s.Stats()
		st.Passes += x.Passes
		st.Lanes += x.Lanes
		st.EngineMisses += x.EngineMisses
		st.Naive += x.Naive
	}
	return st
}

func (f *fleetW) measure(window time.Duration, tr *tracer, tl *tally) (map[string]float64, error) {
	f.calls++
	routeBefore, servedBefore := f.fl.router.Stats(), f.servedStats()
	perClient := make([][]fleetCall, fleetClients)
	gens := make([]*rand.Rand, fleetClients)
	for c := range gens {
		gens[c] = rand.New(rand.NewPCG(f.cfg.seed, uint64(f.calls*fleetClients+c)))
	}
	// The loop runs in segments with a host probe between them; elapsed
	// and every completion time count only the time the clients ran.
	var elapsed time.Duration
	for elapsed < window {
		f.cfg.host.sample()
		seg := min(fleetSegment, window-elapsed)
		var wg sync.WaitGroup
		segStart := time.Now()
		for c := 0; c < fleetClients; c++ {
			wg.Add(1)
			go func(c int, base time.Duration) {
				defer wg.Done()
				for time.Since(segStart) < seg {
					call := fleetCall{q: drawQuery(gens[c]).query()}
					body := call.q.body()
					t0 := time.Now()
					call.code, call.body, call.err = f.fl.post(f.fl.front.url, "/v1/query", body)
					call.latency, call.done, call.reqLen = time.Since(t0), base+time.Since(segStart), len(body)
					tr.leaf(0, "cluster POST /v1/query", t0)
					perClient[c] = append(perClient[c], call)
				}
			}(c, elapsed)
		}
		wg.Wait()
		elapsed += time.Since(segStart)
	}
	var calls []fleetCall
	for _, pc := range perClient {
		calls = append(calls, pc...)
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].done < calls[j].done })
	f.route = routeDelta(routeBefore, f.fl.router.Stats())
	servedAfter := f.servedStats()
	f.served = statsDelta(servedBefore, servedAfter)

	// Checks, after the timed window: every body byte-equal to the
	// standalone answer's wire form, and no request left unrouted.
	steps := make([]float64, len(calls))
	var lat, bytes []float64
	var at []time.Duration
	f.overloaded = 0
	for i, c := range calls {
		want := c.q.standalone(f.ref)
		steps[i] = float64(c.q.k * want.Rounds)
		if checkBody(tl, "fleet query", c.code, c.body, c.err, queryWire(want)) {
			lat = append(lat, ms(c.latency))
		} else {
			lat = append(lat, ms(requestDeadline))
		}
		if c.code == http.StatusTooManyRequests {
			f.overloaded++
		}
		bytes, at = append(bytes, float64(c.reqLen+len(c.body))), append(at, c.done)
	}
	tl.check(f.route.unrouted == 0, func() string { return fmt.Sprintf("router left %d requests unrouted", f.route.unrouted) })
	f.bytes = mean(bytes)
	f.sample = nil
	for i := 0; i < len(calls) && i < fleetSample; i++ {
		f.sample = append(f.sample, calls[i].q)
	}

	var walls, rates []float64
	prev := time.Duration(0)
	for b := fleetBatch; b <= len(calls); b += fleetBatch {
		wall := (calls[b-1].done - prev).Seconds()
		batchSteps := 0.0
		for _, s := range steps[b-fleetBatch : b] {
			batchSteps += s
		}
		walls, rates = append(walls, wall), append(rates, batchSteps/wall)
		prev = calls[b-1].done
	}
	if len(walls) == 0 { // a window too short for one batch: scale the whole window
		wall := elapsed.Seconds() * fleetBatch / float64(len(calls))
		total := 0.0
		for _, s := range steps {
			total += s
		}
		walls, rates = append(walls, wall), append(rates, total/elapsed.Seconds())
	}
	cut := quantile(steps, heavyQuantile)
	var heavy []float64
	for i, s := range steps {
		if s >= cut {
			heavy = append(heavy, lat[i])
		}
	}
	qps := float64(len(calls)) / elapsed.Seconds()
	m := map[string]float64{
		"wall_s":             quantile(walls, 0.5),
		"walker_steps_per_s": quantile(rates, 0.5),
		"qps":                qps,
		"max_qps":            qps, // a closed loop runs at the most its clients can drive
		"p50_ms":             quantile(lat, 0.5),
		"p99_ms":             windowed(lat, at, 0.99, tailWindow),
		"heavy_p50_ms":       quantile(heavy, 0.5),
	}
	fmt.Fprintf(f.cfg.log, "fleet: %d requests from %d clients, max replica share %.3f: %s\n",
		len(calls), fleetClients, f.route.maxShare, joinf(m))
	return m, nil
}

func (f *fleetW) layers(tr *tracer, tl *tally) (map[string]float64, error) {
	lr, err := runLadder(f.cfg, f.graphs, nil, ladderSample{queries: f.sample}, f.fl, tr, tl)
	if err != nil {
		return nil, err
	}
	m := lr.metrics()
	m["cluster.max_replica_share"] = f.route.maxShare
	m["cluster.failovers"] = float64(f.route.failovers)
	m["cluster.unrouted"] = float64(f.route.unrouted)
	m["httpapi.bytes_per_req"] = f.bytes
	m["serve.lanes_per_pass"] = lanesPerPass(f.served)
	m["serve.engine_misses"] = float64(f.served.EngineMisses)
	m["serve.overloaded"] = float64(f.overloaded)
	m["load.late_ms"] = 0 // a closed loop has no arrival schedule to fall behind
	m["graph.build_s"] = quantile(f.buildS, 0.5)
	m["walk.compile_s"] = quantile(f.compileS, 0.5)
	m["walk.compiles"] = float64(f.served.EngineMisses)
	fmt.Fprintf(f.cfg.log, "fleet layers: %s\n", joinf(m))
	return m, nil
}
