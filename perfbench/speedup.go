package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"manywalks/internal/exact"
	"manywalks/internal/graph"
	"manywalks/internal/walk"
)

// The speedup workload is the paper's experiment as a researcher runs it:
// adaptive estimates of the k-walk cover time C_k for k in {1, 4, 16, 64}
// on one graph of each speed-up regime, plus a hitting time on the
// expander and a hopper-kernel cover (dense alias bank). One sweep is one
// batch; the run repeats sweeps with fresh seeds until its window ends.
var speedupJobs = func() []estReq {
	var jobs []estReq
	for _, g := range []struct {
		spec  string
		start int32
	}{
		{"margulis:24", 0}, // linear speed-up
		{"cycle:256", 0},   // logarithmic
		{"barbell:65", 64}, // superlinear, from the center vertex
	} {
		for _, k := range []int{1, 4, 16, 64} {
			jobs = append(jobs, estReq{graph: g.spec, start: g.start, target: -1, k: k})
		}
	}
	jobs = append(jobs,
		estReq{graph: "margulis:24", start: 0, target: 300, k: 1},
		estReq{graph: "cycle:1024", kernel: "hopper:power", start: 0, target: -1, k: 1})
	for i := range jobs {
		jobs[i].trials = speedupBudget
		jobs[i].maxSteps = speedupMaxRounds
	}
	return jobs
}()

const (
	speedupRTol      = 0.05
	speedupBudget    = 16384   // trial cap of every adaptive estimate
	speedupMaxRounds = 1 << 24 // per-trial round budget, far above every C_k here
	speedupMinSweeps = 3
	ladderTrials     = 8 // trials of each job the layer ladder replays
	hitSEs           = 4 // the hitting estimate must lie within this many SEs of the exact value
)

var speedupPrecision = walk.Precision{RTol: speedupRTol}

type speedup struct {
	cfg      config
	graphs   map[string]*graph.Graph
	kernels  map[string]walk.Kernel
	buildS   []float64
	compileS []float64
	calls    int     // measure calls so far: each draws its own input stream
	exactHit float64 // exact h(start, target) of the hitting job
	// The last window's first sweep, replayed by layers.
	seeds []uint64
	ests  []walk.Estimate
	lat   []time.Duration
}

func newSpeedup(cfg config) workload { return &speedup{cfg: cfg} }

func (s *speedup) headline() string { return "wall_s" }

// hostScaled: every metric here times sweeps of the step loop or the
// engine compile, long stretches of work on the cores.
func (s *speedup) hostScaled() scaling {
	return scaling{stretch: []string{"setup_s", "wall_s", "walker_steps_per_s", "qps", "max_qps", "p50_ms", "heavy_p50_ms"}}
}

func (s *speedup) setup() error {
	t0 := time.Now()
	s.graphs = map[string]*graph.Graph{}
	for _, j := range speedupJobs {
		if s.graphs[j.graph] == nil {
			g, err := graph.ParseSpec(j.graph)
			if err != nil {
				return err
			}
			s.graphs[j.graph] = g
		}
	}
	t1 := time.Now()
	s.kernels = map[string]walk.Kernel{}
	compiled := map[string]bool{}
	for _, j := range speedupJobs {
		kern, err := kernelOf(j.kernel)
		if err != nil {
			return err
		}
		if kern != nil {
			s.kernels[j.graph] = kern
		}
		if compiled[j.graph+"|"+j.kernel] {
			continue
		}
		compiled[j.graph+"|"+j.kernel] = true
		if _, err := compileEngine(s.graphs[j.graph], kern); err != nil {
			return err
		}
	}
	t2 := time.Now()
	s.buildS = append(s.buildS, t1.Sub(t0).Seconds())
	s.compileS = append(s.compileS, t2.Sub(t1).Seconds())
	return nil
}

func (s *speedup) close() {}

func (s *speedup) opts(j estReq, seed uint64, workers int) walk.MCOptions {
	o := j.mc(workers)
	o.Seed = seed
	o.Precision = speedupPrecision
	return o
}

func (s *speedup) measure(window time.Duration, tr *tracer, tl *tally) (map[string]float64, error) {
	if s.exactHit == 0 {
		for _, j := range speedupJobs {
			if j.hitting() {
				ht, err := exact.ComputeHittingTimes(s.graphs[j.graph])
				if err != nil {
					return nil, err
				}
				s.exactHit = ht.At(j.start, j.target)
			}
		}
	}
	s.calls++
	gen := rand.New(rand.NewPCG(s.cfg.seed, uint64(s.calls)))
	// Latencies are taken per sweep and their medians over the sweeps
	// reported: a sweep's 14 estimates differ by orders of magnitude, so a
	// quantile pooled over sweeps would fall between jobs and jump.
	var walls, rates, p50s, p99s, heavy []float64
	var seeds [][]uint64
	var ests [][]walk.Estimate
	var lats [][]time.Duration
	var total time.Duration
	calls := 0
	for start := time.Now(); len(walls) < speedupMinSweeps || time.Since(start) < window; {
		s.cfg.host.sample()
		sweepSeeds := make([]uint64, len(speedupJobs))
		for i := range sweepSeeds {
			sweepSeeds[i] = gen.Uint64()
		}
		sweepEsts := make([]walk.Estimate, len(speedupJobs))
		sweepLat := make([]time.Duration, len(speedupJobs))
		root := tr.id()
		t0 := time.Now()
		for i, j := range speedupJobs {
			c0 := time.Now()
			est, err := j.estimate(s.graphs[j.graph], s.opts(j, sweepSeeds[i], s.cfg.workers))
			sweepLat[i] = time.Since(c0)
			tr.leaf(root, "walk.Estimate "+jobName(j), c0)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", jobName(j), err)
			}
			sweepEsts[i] = est
		}
		wall := time.Since(t0)
		tr.add(root, 0, "sweep", t0, time.Now())
		steps := 0.0
		var sweepMs, sweepHeavy []float64
		for i, j := range speedupJobs {
			est := sweepEsts[i]
			steps += float64(j.k) * math.Round(est.Summary.Mean*float64(est.Summary.N))
			sweepMs = append(sweepMs, ms(sweepLat[i]))
			if j.k == 1 && !j.hitting() {
				sweepHeavy = append(sweepHeavy, ms(sweepLat[i]))
			}
			s.checkEstimate(tl, j, est)
		}
		p50s, p99s = append(p50s, quantile(sweepMs, 0.5)), append(p99s, quantile(sweepMs, 0.99))
		heavy = append(heavy, quantile(sweepHeavy, 0.5))
		total += wall
		calls += len(speedupJobs)
		walls = append(walls, wall.Seconds())
		rates = append(rates, steps/wall.Seconds())
		seeds, ests, lats = append(seeds, sweepSeeds), append(ests, sweepEsts), append(lats, sweepLat)
	}
	// One sampled estimate per window must be bit-identical at one worker.
	r, i := gen.IntN(len(seeds)), gen.IntN(len(speedupJobs))
	j := speedupJobs[i]
	one, err := j.estimate(s.graphs[j.graph], s.opts(j, seeds[r][i], 1))
	tl.check(err == nil && one == ests[r][i], func() string {
		return fmt.Sprintf("%s seed %d: workers=1 gives %+v, workers=%d gave %+v", jobName(j), seeds[r][i], one, s.cfg.workers, ests[r][i])
	})
	s.seeds, s.ests, s.lat = seeds[0], ests[0], lats[0]
	qps := float64(calls) / total.Seconds()
	m := map[string]float64{
		"wall_s":             quantile(walls, 0.5),
		"walker_steps_per_s": quantile(rates, 0.5),
		"qps":                qps,
		"max_qps":            qps, // an offline batch runs at its maximum rate
		"p50_ms":             quantile(p50s, 0.5),
		"p99_ms":             quantile(p99s, 0.5),
		"heavy_p50_ms":       quantile(heavy, 0.5),
	}
	fmt.Fprintf(s.cfg.log, "speedup: %d sweeps of %d estimates: %s\nsweep walls: %.3f\n", len(walls), len(speedupJobs), joinf(m), walls)
	return m, nil
}

// checkEstimate counts one estimate: it must have converged with no
// truncated trial, and the hitting estimate must lie within hitSEs
// standard errors of the exact hitting time.
func (s *speedup) checkEstimate(tl *tally, j estReq, est walk.Estimate) {
	ok := est.Converged && est.Truncated == 0 && est.Summary.N <= speedupBudget
	if j.hitting() {
		ok = ok && math.Abs(est.Summary.Mean-s.exactHit) <= hitSEs*est.Summary.StdErr()
	}
	tl.check(ok, func() string {
		return fmt.Sprintf("%s: converged %v truncated %d mean %.2f ± %.2f (exact hitting %.2f)",
			jobName(j), est.Converged, est.Truncated, est.Summary.Mean, est.Summary.StdErr(), s.exactHit)
	})
}

func jobName(j estReq) string {
	name := fmt.Sprintf("%s k=%d cover", j.graph, j.k)
	if j.hitting() {
		name = fmt.Sprintf("%s hit %d->%d", j.graph, j.start, j.target)
	}
	if j.kernel != "" {
		name += " " + j.kernel
	}
	return name
}

func (s *speedup) layers(tr *tracer, tl *tally) (map[string]float64, error) {
	sample := ladderSample{}
	for i, j := range speedupJobs {
		j.trials, j.seed = ladderTrials, s.seeds[i]
		sample.ests = append(sample.ests, j)
	}
	lr, err := runLadder(s.cfg, s.graphs, s.kernels, sample, nil, tr, tl)
	if err != nil {
		return nil, err
	}
	m := lr.metrics()
	// Replay the first sweep's adaptive schedules as bare grouped passes,
	// wave by wave as the estimator runs them, at nproc workers and at one.
	var pass [2]time.Duration
	var steps, trials, waves, estTime float64
	for i, j := range speedupJobs {
		est := s.ests[i]
		trials += float64(est.Summary.N)
		waves += float64(est.Waves)
		estTime += s.lat[i].Seconds()
		steps += float64(j.k) * math.Round(est.Summary.Mean*float64(est.Summary.N))
		kern, err := kernelOf(j.kernel)
		if err != nil {
			return nil, err
		}
		eng := walk.NewEngine(s.graphs[j.graph], walk.EngineOptions{Workers: 1, Kernel: kern})
		for w, workers := range []int{s.cfg.workers, 1} {
			n, d, err := replaySchedule(eng, j, s.seeds[i], workers, tr)
			if err != nil {
				return nil, err
			}
			tl.check(n == est.Summary.N, func() string {
				return fmt.Sprintf("%s: grouped replay ran %d trials, estimate %d", jobName(j), n, est.Summary.N)
			})
			pass[w] += d
		}
	}
	m["walk.grouped.pass_s"] = pass[0].Seconds()
	m["walk.grouped.ns_per_walker_step"] = float64(pass[0]) / steps
	m["walk.grouped.scaling"] = float64(pass[1]) / float64(pass[0])
	m["walk.estimate.trials_used"] = trials
	m["walk.estimate.waves"] = waves
	m["walk.estimate.overhead_s"] = estTime - pass[0].Seconds()
	m["graph.build_s"] = quantile(s.buildS, 0.5)
	m["walk.compile_s"] = quantile(s.compileS, 0.5)
	m["walk.compiles"] = float64(len(speedupJobs)) // each Estimate call compiles its own engine
	m["load.late_ms"] = 0                          // no arrival schedule: the sweep is one closed batch
	fmt.Fprintf(s.cfg.log, "speedup layers: %s\n", joinf(m))
	return m, nil
}

// replaySchedule runs job j's adaptive schedule for seed as the estimator
// does — one RunGrouped pass per wave until the stop rule fires — and
// returns the trials run and the time spent in the passes.
func replaySchedule(eng *walk.Engine, j estReq, seed uint64, workers int, tr *tracer) (int, time.Duration, error) {
	st, err := walk.NewAdaptiveState(speedupPrecision, j.trials)
	if err != nil {
		return 0, 0, err
	}
	var marked []bool
	if j.hitting() {
		marked = make([]bool, eng.Graph().N())
		marked[j.target] = true
	}
	var d time.Duration
	for !st.Done() {
		lo, hi := st.WaveSpan()
		var obs walk.GroupObserver = walk.NewGroupCoverObserver(0)
		if j.hitting() {
			obs = walk.NewGroupHitObserver(marked)
		}
		t0 := time.Now()
		res, err := eng.RunGrouped(walk.GroupedRunSpec{Trials: hi - lo, TrialBase: lo, Starts: repeat(j.start, j.k),
			Seed: seed, MaxRounds: j.maxSteps, Workers: workers}, obs)
		d += time.Since(t0)
		tr.leaf(0, fmt.Sprintf("walk.Engine.RunGrouped workers=%d", workers), t0)
		if err != nil {
			return 0, 0, err
		}
		st.Fold(res.Rounds, res.Stopped)
	}
	return st.Trials(), d, nil
}
