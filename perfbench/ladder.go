package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"manywalks/internal/cluster"
	"manywalks/internal/graph"
	"manywalks/internal/netsim"
	"manywalks/internal/rng"
	"manywalks/internal/serve"
	"manywalks/internal/walk"
)

// The layer ladder replays sampled requests one layer down at a time, from
// the bare step loop up to the cluster router. Each rung calls one
// module's public function, so a layer's cost is the difference between
// adjacent rungs, measured from outside the program.
const (
	rungStep     = iota // walk.Engine single-lane run (KCoverFrom, KHit, netsim.RunWalkQueryEngine)
	rungGrouped         // walk.Engine.RunGrouped over the request's lanes
	rungEstimate        // the layer that runs grouped passes for a request: walk.Estimate*, netsim.RunWalkQueriesEngine
	rungServe           // serve.Server, called in process
	rungHTTP            // POST to one walkd replica (httpapi.NewMux)
	rungCluster         // POST through the cluster router
	numRungs
)

var rungNames = [numRungs]string{"step", "grouped", "estimate", "serve", "httpapi", "cluster"}

// ladderSample is the set of requests a traced run replays.
type ladderSample struct {
	queries []queryReq
	ests    []estReq
}

// ladderResult holds what each rung cost the sample.
type ladderResult struct {
	total   [numRungs]time.Duration // whole sample per rung
	perReq  [][numRungs]time.Duration
	steps   float64       // walker steps of the sample (k × rounds, summed)
	grouped time.Duration // the grouped rung at Workers 1, for scaling
	trials  int           // trials the estimate rung ran
	waves   int           // adaptive waves the estimate rung ran
	refused int           // ErrOverloaded or 429 answers at the upper rungs
	bytes   []float64     // request + response body bytes at the httpapi rung
	stats   serve.Stats   // the in-process server's counters over the replay
	route   routeStats    // the router's counters over the replay
}

// routeStats is the change in a cluster router's counters.
type routeStats struct {
	maxShare            float64
	failovers, unrouted int64
}

func routeDelta(before, after cluster.Stats) routeStats {
	var total, top int64
	for i, b := range after.Backends {
		n := b.Requests - before.Backends[i].Requests
		total += n
		if n > top {
			top = n
		}
	}
	rs := routeStats{failovers: after.Failovers - before.Failovers, unrouted: after.Unrouted - before.Unrouted}
	if total > 0 {
		rs.maxShare = float64(top) / float64(total)
	}
	return rs
}

// runLadder replays s on the workload's graphs. fl is the fleet whose
// replica 0 and router the upper rungs use; nil builds one for the replay.
func runLadder(cfg config, graphs map[string]*graph.Graph, kernels map[string]walk.Kernel, s ladderSample, fl *fleet, tr *tracer, tl *tally) (ladderResult, error) {
	if fl == nil {
		var err error
		if fl, err = startFleet(graphs, serve.Options{Workers: cfg.workers}, 1, kernels); err != nil {
			return ladderResult{}, err
		}
		defer fl.close()
	}
	engines := map[string]*walk.Engine{}
	engineFor := func(id, kernel string) (*walk.Engine, error) {
		key := id + "|" + kernel
		if e, ok := engines[key]; ok {
			return e, nil
		}
		k, err := kernelOf(kernel)
		if err != nil {
			return nil, err
		}
		e := walk.NewEngine(graphs[id], walk.EngineOptions{Workers: 1, Kernel: k})
		engines[key] = e
		return e, nil
	}
	before, routed := fl.servers[0].Stats(), fl.router.Stats()
	root := tr.id()
	t0 := time.Now()
	var res ladderResult
	var err error
	if len(s.queries) > 0 {
		err = ladderQueries(cfg, s.queries, engineFor, fl, tr, root, tl, &res)
	}
	if err == nil && len(s.ests) > 0 {
		err = ladderEstimates(cfg, graphs, s.ests, engineFor, fl, tr, root, tl, &res)
	}
	tr.add(root, 0, "ladder", t0, time.Now())
	after := fl.servers[0].Stats()
	res.stats = statsDelta(before, after)
	res.route = routeDelta(routed, fl.router.Stats())
	return res, err
}

// timed runs fn, records it as a span under parent and adds its duration
// to the request's rung.
func timed(tr *tracer, parent uint64, name string, d *time.Duration, fn func()) {
	t0 := time.Now()
	fn()
	*d += time.Since(t0)
	tr.leaf(parent, name, t0)
}

func ladderQueries(cfg config, qs []queryReq, engineFor func(id, kernel string) (*walk.Engine, error),
	fl *fleet, tr *tracer, root uint64, tl *tally, res *ladderResult) error {
	base := len(res.perReq)
	res.perReq = append(res.perReq, make([][numRungs]time.Duration, len(qs))...)
	per := res.perReq[base:]
	want := make([]netsim.QueryResult, len(qs))
	// Queries of one shape share the coalescer's grouped pass, so the
	// grouped and estimate rungs run each shape's queries as one pass and
	// charge every query its share.
	shapes := map[queryShape][]int{}
	for i, q := range qs {
		sh := queryShape{q.graph, q.origin, q.k, q.ttl, q.target}
		shapes[sh] = append(shapes[sh], i)
	}
	for rung := rungStep; rung < numRungs; rung++ {
		rid := tr.id()
		r0 := time.Now()
		switch rung {
		case rungStep:
			for i, q := range qs {
				eng, err := engineFor(q.graph, "")
				if err != nil {
					return err
				}
				timed(tr, rid, "netsim.RunWalkQueryEngine", &per[i][rung], func() { want[i] = q.standalone(eng) })
				res.steps += float64(q.k * want[i].Rounds)
			}
		case rungGrouped, rungEstimate:
			for sh, idx := range shapes {
				eng, err := engineFor(sh.graph, "")
				if err != nil {
					return err
				}
				seeds := make([]uint64, len(idx))
				for j, i := range idx {
					seeds[j] = qs[i].seed
				}
				hasItem := make([]bool, eng.Graph().N())
				hasItem[sh.target] = true
				var d time.Duration
				var got []netsim.QueryResult
				if rung == rungGrouped {
					spec := walk.GroupedRunSpec{Trials: len(idx), Starts: repeat(sh.origin, sh.k), Seeds: seeds,
						MaxRounds: int64(sh.ttl), Workers: cfg.workers}
					var gr walk.GroupedResult
					timed(tr, rid, "walk.Engine.RunGrouped", &d, func() { gr, err = eng.RunGrouped(spec, walk.NewGroupHitObserver(hasItem)) })
					if err != nil {
						return err
					}
					spec.Workers = 1
					timed(tr, rid, "walk.Engine.RunGrouped workers=1", &res.grouped, func() { _, err = eng.RunGrouped(spec, walk.NewGroupHitObserver(hasItem)) })
					if err != nil {
						return err
					}
					got = make([]netsim.QueryResult, len(idx))
					for j := range idx {
						got[j] = netsim.QueryResult{Found: gr.Stopped[j], Rounds: int(gr.Rounds[j]), Messages: int64(sh.k) * gr.Rounds[j]}
					}
				} else {
					timed(tr, rid, "netsim.RunWalkQueriesEngine", &d, func() {
						got = netsim.RunWalkQueriesEngine(eng, sh.origin, sh.k, sh.ttl, hasItem, seeds)
					})
				}
				for j, i := range idx {
					per[i][rung] = d / time.Duration(len(idx))
					tl.check(got[j] == want[i], func() string {
						return fmt.Sprintf("ladder %s query %+v: %+v, standalone %+v", rungNames[rung], qs[i], got[j], want[i])
					})
				}
			}
		case rungServe:
			for i, q := range qs {
				var got netsim.QueryResult
				var err error
				timed(tr, rid, "serve.Server.WalkQuery", &per[i][rung], func() {
					got, err = fl.servers[0].WalkQuery(context.Background(), q.serveReq())
				})
				res.noteRefusal(err, 0)
				tl.check(err == nil && got == want[i], func() string {
					return fmt.Sprintf("ladder serve query %+v: %+v %v, standalone %+v", q, got, err, want[i])
				})
			}
		case rungHTTP, rungCluster:
			url, name := fl.replicas[0].url, "httpapi POST /v1/query"
			if rung == rungCluster {
				url, name = fl.front.url, "cluster POST /v1/query"
			}
			for i, q := range qs {
				body := q.body()
				var code int
				var got []byte
				var err error
				timed(tr, rid, name, &per[i][rung], func() { code, got, err = fl.post(url, "/v1/query", body) })
				exp := queryWire(want[i])
				checkBody(tl, "ladder "+rungNames[rung], code, got, err, exp)
				res.noteRefusal(nil, code)
				if rung == rungHTTP {
					res.bytes = append(res.bytes, float64(len(body)+len(got)))
				}
			}
		}
		for _, p := range per {
			res.total[rung] += p[rung]
		}
		tr.add(rid, root, "ladder."+rungNames[rung], r0, time.Now())
	}
	return nil
}

type queryShape struct {
	graph  string
	origin int32
	k, ttl int
	target int32
}

func ladderEstimates(cfg config, graphs map[string]*graph.Graph, es []estReq, engineFor func(id, kernel string) (*walk.Engine, error),
	fl *fleet, tr *tracer, root uint64, tl *tally, res *ladderResult) error {
	base := len(res.perReq)
	res.perReq = append(res.perReq, make([][numRungs]time.Duration, len(es))...)
	per := res.perReq[base:]
	want := make([]walk.Estimate, len(es))
	for rung := rungStep; rung < numRungs; rung++ {
		rid := tr.id()
		r0 := time.Now()
		for i, e := range es {
			eng, err := engineFor(e.graph, e.kernel)
			if err != nil {
				return err
			}
			var marked []bool
			if e.hitting() {
				marked = make([]bool, eng.Graph().N())
				marked[e.target] = true
			}
			fail := func(got any, err error) func() string {
				return func() string {
					return fmt.Sprintf("ladder %s estimate %+v: %+v %v, want %+v", rungNames[rung], e, got, err, want[i])
				}
			}
			switch rung {
			case rungStep:
				gr := walk.GroupedResult{Rounds: make([]int64, e.trials), Stopped: make([]bool, e.trials)}
				timed(tr, rid, "walk.Engine.KCoverFrom/KHitFrom", &per[i][rung], func() {
					for t := 0; t < e.trials; t++ {
						seed := rng.NewStream(e.seed, uint64(t)).Uint64()
						if e.hitting() {
							h := eng.KHitFrom(e.start, 1, marked, seed, e.maxSteps)
							gr.Rounds[t], gr.Stopped[t] = h.Rounds, h.Hit
						} else {
							c := eng.KCoverFrom(e.start, e.k, seed, e.maxSteps)
							gr.Rounds[t], gr.Stopped[t] = c.Steps, c.Covered
						}
					}
				})
				want[i] = walk.EstimateFromTrials(gr)
				for _, r := range gr.Rounds {
					res.steps += float64(int64(e.k) * r)
				}
			case rungGrouped:
				spec := walk.GroupedRunSpec{Trials: e.trials, Starts: repeat(e.start, e.k), Seed: e.seed,
					MaxRounds: e.maxSteps, Workers: cfg.workers}
				obs := func() walk.GroupObserver {
					if e.hitting() {
						return walk.NewGroupHitObserver(marked)
					}
					return walk.NewGroupCoverObserver(0)
				}
				var gr walk.GroupedResult
				timed(tr, rid, "walk.Engine.RunGrouped", &per[i][rung], func() { gr, err = eng.RunGrouped(spec, obs()) })
				if err != nil {
					return err
				}
				spec.Workers = 1
				timed(tr, rid, "walk.Engine.RunGrouped workers=1", &res.grouped, func() { _, err = eng.RunGrouped(spec, obs()) })
				if err != nil {
					return err
				}
				got := walk.EstimateFromTrials(gr)
				tl.check(got == want[i], fail(got, nil))
			case rungEstimate:
				var got walk.Estimate
				timed(tr, rid, "walk.Estimate*", &per[i][rung], func() { got, err = e.estimate(graphs[e.graph], e.mc(cfg.workers)) })
				res.trials, res.waves = res.trials+got.Summary.N, res.waves+got.Waves
				tl.check(err == nil && got == want[i], fail(got, err))
			case rungServe:
				var got walk.Estimate
				timed(tr, rid, "serve.Server.CoverTime/HittingTime", &per[i][rung], func() { got, err = serveEstimate(fl.servers[0], e) })
				res.noteRefusal(err, 0)
				tl.check(err == nil && got == want[i], fail(got, err))
			case rungHTTP, rungCluster:
				url, name := fl.replicas[0].url, "httpapi POST "+e.path()
				if rung == rungCluster {
					url, name = fl.front.url, "cluster POST "+e.path()
				}
				body := e.body()
				var code int
				var got []byte
				timed(tr, rid, name, &per[i][rung], func() { code, got, err = fl.post(url, e.path(), body) })
				checkBody(tl, "ladder "+rungNames[rung], code, got, err, estimateWire(want[i]))
				res.noteRefusal(nil, code)
				if rung == rungHTTP {
					res.bytes = append(res.bytes, float64(len(body)+len(got)))
				}
			}
		}
		for _, p := range per {
			res.total[rung] += p[rung]
		}
		tr.add(rid, root, "ladder."+rungNames[rung], r0, time.Now())
	}
	return nil
}

// noteRefusal counts an admission refusal: serve.ErrOverloaded in process,
// 429 over HTTP.
func (r *ladderResult) noteRefusal(err error, code int) {
	if errors.Is(err, serve.ErrOverloaded) || code == http.StatusTooManyRequests {
		r.refused++
	}
}

// serveEstimate submits e to srv as the matching estimate request.
func serveEstimate(srv *serve.Server, e estReq) (walk.Estimate, error) {
	ctx := context.Background()
	if e.hitting() {
		return srv.HittingTime(ctx, serve.HittingTimeRequest{Graph: e.graph, Start: e.start, Target: e.target,
			Trials: e.trials, Seed: e.seed, MaxSteps: e.maxSteps})
	}
	kern, err := kernelOf(e.kernel)
	if err != nil {
		return walk.Estimate{}, err
	}
	return srv.CoverTime(ctx, serve.CoverTimeRequest{Graph: e.graph, Kernel: kern, Start: e.start, K: e.k,
		Trials: e.trials, Seed: e.seed, MaxSteps: e.maxSteps})
}

func repeat(v int32, k int) []int32 {
	s := make([]int32, k)
	for i := range s {
		s[i] = v
	}
	return s
}

// metrics turns the replay into the ladder's per-layer metrics. Layer
// overheads are medians over requests of the difference between adjacent
// rungs.
func (r ladderResult) metrics() map[string]float64 {
	m := map[string]float64{}
	for rung := 0; rung < numRungs; rung++ {
		m["ladder."+rungNames[rung]+"_ms"] = ms(r.total[rung])
	}
	diff := func(hi, lo int) float64 {
		xs := make([]float64, len(r.perReq))
		for i, p := range r.perReq {
			xs[i] = ms(p[hi] - p[lo])
		}
		return quantile(xs, 0.5)
	}
	m["serve.wait_ms"] = diff(rungServe, rungStep)
	m["httpapi.overhead_ms"] = diff(rungHTTP, rungServe)
	m["cluster.overhead_ms"] = diff(rungCluster, rungHTTP)
	m["httpapi.bytes_per_req"] = mean(r.bytes)
	m["walk.step.ns_per_walker_step"] = float64(r.total[rungStep]) / r.steps
	m["walk.grouped.ns_per_walker_step"] = float64(r.total[rungGrouped]) / r.steps
	m["walk.grouped.pass_s"] = r.total[rungGrouped].Seconds()
	m["walk.grouped.scaling"] = float64(r.grouped) / float64(r.total[rungGrouped])
	m["walk.estimate.trials_used"] = float64(r.trials)
	m["walk.estimate.waves"] = float64(r.waves)
	m["walk.estimate.overhead_s"] = (r.total[rungEstimate] - r.total[rungGrouped]).Seconds()
	m["serve.lanes_per_pass"] = lanesPerPass(r.stats)
	m["serve.engine_misses"] = float64(r.stats.EngineMisses)
	m["serve.overloaded"] = float64(r.refused)
	m["cluster.max_replica_share"] = r.route.maxShare
	m["cluster.failovers"] = float64(r.route.failovers)
	m["cluster.unrouted"] = float64(r.route.unrouted)
	return m
}
