package walk

import (
	"fmt"
	"slices"
	"testing"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// adaptiveTestPrecision is the grid's stop rule: loose enough to stop
// before the budget on the small test families, tight enough to need more
// than the minimum trials.
var adaptiveTestPrecision = Precision{RTol: 0.15, Confidence: 0.95, MinTrials: 8, Wave: 16}

// adaptiveOutcome flattens an adaptive run for bit-level comparison.
type adaptiveOutcome struct {
	rounds    []int64
	stopped   []bool
	waves     int
	converged bool
	est       Estimate
}

func adaptiveOutcomeOf(t *testing.T, res GroupedResult, err error) adaptiveOutcome {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return adaptiveOutcome{
		rounds:    slices.Clone(res.Rounds),
		stopped:   slices.Clone(res.Stopped),
		waves:     res.Waves,
		converged: res.Converged,
		est:       EstimateFromTrials(res),
	}
}

func (o adaptiveOutcome) equal(p adaptiveOutcome) bool {
	return slices.Equal(o.rounds, p.rounds) && slices.Equal(o.stopped, p.stopped) &&
		o.waves == p.waves && o.converged == p.converged && o.est == p.est
}

// TestAdaptiveStopDeterministicGrid is the sequential-stopping determinism
// contract: on a heavy-tailed barbell cover and an expander hitting
// workload, for every kernel and a Workers × BatchRounds grid, the
// adaptive run's stop wave, trial count, per-trial samples, and estimate
// are bit-identical to the Workers=1 default-batch baseline. The stop
// decision is a pure function of the samples, and the samples are
// invariant under parallelism — so the whole run is.
func TestAdaptiveStopDeterministicGrid(t *testing.T) {
	barbell, bc := graph.Barbell(17)
	expander := graph.MargulisExpander(6)
	marked := make([]bool, expander.N())
	marked[20] = true

	workloads := []struct {
		name string
		run  func(eng *Engine, opts MCOptions) (GroupedResult, error)
		g    *graph.Graph
	}{
		{"barbellCover", func(eng *Engine, opts MCOptions) (GroupedResult, error) {
			return runCoverTrials(eng, opts, commonStarts(bc, 4), 0, nil)
		}, barbell},
		{"expanderHit", func(eng *Engine, opts MCOptions) (GroupedResult, error) {
			return runHitTrials(eng, opts, commonStarts(0, 4), marked)
		}, expander},
	}
	for _, wl := range workloads {
		for _, kern := range Kernels() {
			var baseline adaptiveOutcome
			haveBaseline := false
			for _, workers := range []int{1, 4} {
				for _, batch := range []int{0, 5} {
					name := fmt.Sprintf("%s/%s/w%d/b%d", wl.name, kern, workers, batch)
					t.Run(name, func(t *testing.T) {
						eng := NewEngine(wl.g, EngineOptions{Workers: 1, BatchRounds: batch, Kernel: kern})
						opts := MCOptions{
							Trials:    1024,
							Workers:   workers,
							Seed:      4242,
							MaxSteps:  1 << 18,
							Precision: adaptiveTestPrecision,
						}
						res, err := wl.run(eng, opts)
						got := adaptiveOutcomeOf(t, res, err)
						if !got.converged {
							t.Fatalf("adaptive run did not converge within %d trials (waves %d)", opts.Trials, got.waves)
						}
						if len(got.rounds) >= opts.Trials {
							t.Fatalf("adaptive run used the whole budget (%d trials): no early stop to test", len(got.rounds))
						}
						if !haveBaseline {
							baseline, haveBaseline = got, true
							return
						}
						if !got.equal(baseline) {
							t.Fatalf("adaptive run diverged from w1 baseline:\n got  waves=%d trials=%d est=%+v\n want waves=%d trials=%d est=%+v",
								got.waves, len(got.rounds), got.est, baseline.waves, len(baseline.rounds), baseline.est)
						}
					})
				}
			}
		}
	}
}

// TestAdaptiveIsPrefixOfFixed pins the schedule identity: the trials an
// adaptive run executes are exactly the first trials of the fixed-count
// run with the same seed — same global indices, same streams, same
// samples.
func TestAdaptiveIsPrefixOfFixed(t *testing.T) {
	g, c := graph.Barbell(17)
	eng := NewEngine(g, EngineOptions{Workers: 1})
	opts := MCOptions{Trials: 1024, Workers: 1, Seed: 11, MaxSteps: 1 << 18}
	fixed, err := runCoverTrials(eng, opts, commonStarts(c, 4), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	aopts := opts
	aopts.Precision = adaptiveTestPrecision
	adaptive, err := runCoverTrials(eng, aopts, commonStarts(c, 4), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(adaptive.Rounds)
	if n == 0 || n >= opts.Trials {
		t.Fatalf("adaptive ran %d of %d trials: expected an early stop", n, opts.Trials)
	}
	if !slices.Equal(adaptive.Rounds, fixed.Rounds[:n]) || !slices.Equal(adaptive.Stopped, fixed.Stopped[:n]) {
		t.Fatal("adaptive trials are not a prefix of the fixed-count schedule")
	}
}

// TestPrecisionZeroValueFixedCount is the regression pinning the zero
// value: every estimator with Precision{} must reproduce the fixed-count
// grouped pass byte for byte (same samples, no wave accounting).
func TestPrecisionZeroValueFixedCount(t *testing.T) {
	g := graph.MargulisExpander(6)
	opts := MCOptions{Trials: 48, Workers: 2, Seed: 77, MaxSteps: 1 << 18}

	// Reference: the pre-adaptive code path, a single RunGrouped pass with
	// no TrialBase.
	eng := NewEngine(g, EngineOptions{Workers: 1})
	wantCover, err := eng.RunGrouped(GroupedRunSpec{
		Trials: opts.Trials, Starts: commonStarts(0, 3), Seed: opts.Seed,
		MaxRounds: opts.MaxSteps, Workers: opts.Workers,
	}, NewGroupCoverObserver(0))
	if err != nil {
		t.Fatal(err)
	}
	gotCover, err := EstimateKCoverTime(g, 0, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := EstimateFromTrials(wantCover); gotCover != want {
		t.Fatalf("zero-value cover estimate %+v != fixed-count reference %+v", gotCover, want)
	}
	if gotCover.Waves != 0 || gotCover.Converged {
		t.Fatalf("zero-value estimate carries adaptive accounting: %+v", gotCover)
	}

	marked := make([]bool, g.N())
	marked[20] = true
	wantHit, err := eng.RunGrouped(GroupedRunSpec{
		Trials: opts.Trials, Starts: []int32{0}, Seed: opts.Seed,
		MaxRounds: opts.MaxSteps, Workers: opts.Workers,
	}, NewGroupHitObserver(marked))
	if err != nil {
		t.Fatal(err)
	}
	gotHit, err := EstimateHittingTime(g, 0, 20, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := EstimateFromTrials(wantHit); gotHit != want {
		t.Fatalf("zero-value hitting estimate %+v != fixed-count reference %+v", gotHit, want)
	}

	starts := []int32{0, 11, 30}
	wantMeet, err := eng.RunGrouped(GroupedRunSpec{
		Trials: opts.Trials, Starts: starts, Seed: opts.Seed,
		MaxRounds: opts.MaxSteps, Workers: opts.Workers,
	}, NewGroupCollisionObserver(false))
	if err != nil {
		t.Fatal(err)
	}
	gotMeet, err := EstimateKMeetingTime(g, starts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := EstimateFromTrials(wantMeet); gotMeet != want {
		t.Fatalf("zero-value meeting estimate %+v != fixed-count reference %+v", gotMeet, want)
	}

	wantCoal, err := eng.RunGrouped(GroupedRunSpec{
		Trials: opts.Trials, Starts: starts, Seed: opts.Seed,
		MaxRounds: opts.MaxSteps, Workers: opts.Workers,
	}, NewGroupCollisionObserver(true))
	if err != nil {
		t.Fatal(err)
	}
	gotCoal, _, err := EstimateKCoalescenceTime(g, starts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := EstimateFromTrials(wantCoal); gotCoal != want {
		t.Fatalf("zero-value coalescence estimate %+v != fixed-count reference %+v", gotCoal, want)
	}
}

// TestAdaptiveEstimatorsConverge drives every estimator entry point with a
// loose tolerance and checks the adaptive accounting: converged, fewer
// trials than the budget, at least MinTrials, and the OnWave stream
// well-formed (monotone trials, final Done).
func TestAdaptiveEstimatorsConverge(t *testing.T) {
	g := graph.MargulisExpander(6)
	prec := Precision{RTol: 0.15, Wave: 16}
	var waves []WaveStat
	opts := MCOptions{
		Trials: 1024, Workers: 2, Seed: 5, MaxSteps: 1 << 18,
		Precision: prec,
		OnWave:    func(ws WaveStat) { waves = append(waves, ws) },
	}
	est, err := EstimateKCoverTime(g, 0, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Converged {
		t.Fatalf("estimate did not converge: %+v", est)
	}
	if est.Summary.N >= opts.Trials || est.Summary.N < 8 {
		t.Fatalf("adaptive trial count %d out of expected range [8,%d)", est.Summary.N, opts.Trials)
	}
	if est.Waves != len(waves) {
		t.Fatalf("estimate reports %d waves, OnWave saw %d", est.Waves, len(waves))
	}
	for i, ws := range waves {
		if ws.Wave != i {
			t.Fatalf("wave %d reported index %d", i, ws.Wave)
		}
		if i > 0 && ws.Trials <= waves[i-1].Trials {
			t.Fatalf("wave %d trials %d not increasing", i, ws.Trials)
		}
		if ws.Done != (i == len(waves)-1) {
			t.Fatalf("wave %d Done=%v at position %d/%d", i, ws.Done, i, len(waves))
		}
	}
	last := waves[len(waves)-1]
	if !last.Converged || last.RelCI > 0.15 {
		t.Fatalf("final wave not converged: %+v", last)
	}

	// The stationary-placement estimator draws placements off the trial
	// streams; adaptive waves must reproduce them at the global index.
	aest, err := EstimateKCoverTimeStationary(g, 8, MCOptions{
		Trials: 1024, Workers: 1, Seed: 5, MaxSteps: 1 << 18, Precision: prec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !aest.Converged {
		t.Fatalf("stationary estimate did not converge: %+v", aest)
	}

	// Meeting + coalescence: adaptive stop watches the coalescence
	// samples; the meet estimate covers the same trials.
	coal, meet, err := EstimateKCoalescenceTime(g, []int32{0, 17, 29}, MCOptions{
		Trials: 2048, Workers: 2, Seed: 9, MaxSteps: 1 << 20, Precision: Precision{RTol: 0.2, Wave: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !coal.Converged {
		t.Fatalf("coalescence estimate did not converge: %+v", coal)
	}
	if meet.Summary.N != coal.Summary.N {
		t.Fatalf("meet covers %d trials, coalescence %d", meet.Summary.N, coal.Summary.N)
	}
}

// TestAdaptiveStationaryPlacementMatchesFixed pins the Place derivation
// under TrialBase: the adaptive stationary run's samples are a prefix of
// the fixed run's (placement draws come off the same global streams).
func TestAdaptiveStationaryPlacementMatchesFixed(t *testing.T) {
	g := graph.MargulisExpander(6)
	eng := NewEngine(g, EngineOptions{Workers: 1})
	place := func(_ int, r *rng.Source, starts []int32) {
		copy(starts, StationaryStarts(g, len(starts), r))
	}
	opts := MCOptions{Trials: 256, Workers: 1, Seed: 31, MaxSteps: 1 << 18}
	fixed, err := runCoverTrials(eng, opts, make([]int32, 6), 0, place)
	if err != nil {
		t.Fatal(err)
	}
	aopts := opts
	aopts.Precision = Precision{RTol: 0.15, Wave: 16}
	adaptive, err := runCoverTrials(eng, aopts, make([]int32, 6), 0, place)
	if err != nil {
		t.Fatal(err)
	}
	n := len(adaptive.Rounds)
	if n == 0 || n >= opts.Trials {
		t.Fatalf("adaptive ran %d of %d trials: expected an early stop", n, opts.Trials)
	}
	if !slices.Equal(adaptive.Rounds, fixed.Rounds[:n]) {
		t.Fatal("adaptive stationary trials are not a prefix of the fixed schedule")
	}
}

// TestAdaptiveStateClamps pins the wave arithmetic: partial final waves at
// the MaxTrials boundary, the MinTrials floor, and the normalized
// defaults.
func TestAdaptiveStateClamps(t *testing.T) {
	st, err := NewAdaptiveState(Precision{RTol: 1e-12, Wave: 10, MinTrials: 4}, 25)
	if err != nil {
		t.Fatal(err)
	}
	spans := [][2]int{}
	for !st.Done() {
		lo, hi := st.WaveSpan()
		spans = append(spans, [2]int{lo, hi})
		rounds := make([]int64, hi-lo)
		stopped := make([]bool, hi-lo)
		for i := range rounds {
			rounds[i] = int64(1000 + (lo+i)*37%100) // spread: never converges at 1e-12
			stopped[i] = true
		}
		st.Fold(rounds, stopped)
	}
	want := [][2]int{{0, 10}, {10, 20}, {20, 25}}
	if !slices.Equal(spans, want) {
		t.Fatalf("wave spans %v, want %v", spans, want)
	}
	if st.Converged() {
		t.Fatal("impossible tolerance reported converged")
	}
	if st.Trials() != 25 || st.Waves() != 3 {
		t.Fatalf("trials %d waves %d, want 25/3", st.Trials(), st.Waves())
	}

	// MinTrials floor: identical samples meet any rtol immediately, but
	// the stop may not fire before the floor.
	st, err = NewAdaptiveState(Precision{RTol: 0.5, Wave: 2, MinTrials: 6}, 100)
	if err != nil {
		t.Fatal(err)
	}
	folds := 0
	for !st.Done() {
		lo, hi := st.WaveSpan()
		rounds := make([]int64, hi-lo)
		stopped := make([]bool, hi-lo)
		for i := range rounds {
			rounds[i] = 500
			stopped[i] = true
		}
		st.Fold(rounds, stopped)
		folds++
	}
	if st.Trials() != 6 || !st.Converged() {
		t.Fatalf("MinTrials floor: stopped at %d trials (converged %v), want 6", st.Trials(), st.Converged())
	}

	// Defaults flow in via normalization.
	st, err = NewAdaptiveState(Precision{RTol: 0.05}, 400)
	if err != nil {
		t.Fatal(err)
	}
	p := st.Precision()
	if p.Confidence != 0.95 || p.Wave != 32 || p.MinTrials != 8 || p.MaxTrials != 400 {
		t.Fatalf("normalized precision %+v", p)
	}

	if _, err := NewAdaptiveState(Precision{}, 10); err == nil {
		t.Fatal("disabled precision accepted")
	}
	if _, err := NewAdaptiveState(Precision{RTol: 0.1, Confidence: 1.5}, 10); err == nil {
		t.Fatal("invalid confidence accepted")
	}
}

// TestPrecisionHonouredEverywhere runs every estimator that returns an
// Estimate with a loose tolerance and a large trial cap: each must run
// adaptive waves and stop well below the cap. (MeanPartialCoverRounds
// stops on its largest fraction and reports the same trials for every
// fraction.)
func TestPrecisionHonouredEverywhere(t *testing.T) {
	g := graph.Cycle(32)
	const k, cap = 2, 4096
	opts := MCOptions{Trials: cap, Workers: 2, Seed: 21, MaxSteps: 1 << 20, Precision: Precision{RTol: 0.2}}
	cases := []struct {
		name string
		run  func() (Estimate, error)
	}{
		{"CoverTime", func() (Estimate, error) { return EstimateCoverTime(g, 0, opts) }},
		{"KCoverTime", func() (Estimate, error) { return EstimateKCoverTime(g, 0, k, opts) }},
		{"KCoverTimeStationary", func() (Estimate, error) { return EstimateKCoverTimeStationary(g, k, opts) }},
		{"PartialCoverTime", func() (Estimate, error) { return EstimatePartialCoverTime(g, 0, k, 0.5, opts) }},
		{"NBCoverTime", func() (Estimate, error) { return EstimateNBCoverTime(g, 0, k, opts) }},
		{"KernelCoverTime", func() (Estimate, error) { return EstimateKernelCoverTime(g, Lazy(0.5), 0, opts) }},
		{"KernelKCoverTime", func() (Estimate, error) { return EstimateKernelKCoverTime(g, Lazy(0.5), 0, k, opts) }},
		{"HittingTime", func() (Estimate, error) { return EstimateHittingTime(g, 0, 16, opts) }},
		{"KernelHittingTime", func() (Estimate, error) { return EstimateKernelHittingTime(g, Lazy(0.5), 0, 16, opts) }},
		{"MeetingTime", func() (Estimate, error) { return EstimateMeetingTime(g, 0, 16, opts) }},
		{"KMeetingTime", func() (Estimate, error) { return EstimateKMeetingTime(g, []int32{0, 16}, opts) }},
		{"KCoalescenceTime", func() (Estimate, error) {
			coal, _, err := EstimateKCoalescenceTime(g, []int32{0, 10, 20}, opts)
			return coal, err
		}},
		{"MeanPartialCoverRounds", func() (Estimate, error) {
			ests, err := MeanPartialCoverRounds(g, 0, k, []float64{0.25, 1}, opts)
			if err != nil {
				return Estimate{}, err
			}
			if ests[0].Summary.N != ests[1].Summary.N || ests[0].Waves != ests[1].Waves {
				t.Fatalf("fractions ran different trials: %+v vs %+v", ests[0], ests[1])
			}
			return ests[1], nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			est, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if est.Waves == 0 || est.Summary.N >= cap {
				t.Fatalf("Precision ignored: %d waves, %d of %d trials", est.Waves, est.Summary.N, cap)
			}
		})
	}
}
