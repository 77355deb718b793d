package walk

import (
	"fmt"
	"slices"

	"manywalks/internal/graph"
	"manywalks/internal/stats"
)

// EstimatePartialCoverTime estimates the expected α-partial k-walk cover
// time from start: the round a fraction alpha of the vertices (count
// target max(1, ⌊α·n⌋)) has been visited; α=1 is full cover. The paper's
// linear-speed-up proofs hinge on the last few vertices dominating the
// cover time, and partial cover times expose that structure directly.
func EstimatePartialCoverTime(g *graph.Graph, start int32, k int, alpha float64, opts MCOptions) (Estimate, error) {
	if k < 1 {
		return Estimate{}, fmt.Errorf("walk: k must be >= 1")
	}
	if alpha <= 0 || alpha > 1 {
		return Estimate{}, fmt.Errorf("walk: alpha must be in (0,1]")
	}
	if !g.IsConnected() {
		return Estimate{}, fmt.Errorf("walk: cover time diverges on disconnected graphs")
	}
	if err := checkStarts(g, []int32{start}); err != nil {
		return Estimate{}, err
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	eng := NewEngine(g, EngineOptions{Workers: 1})
	res, err := runCoverTrials(eng, opts, commonStarts(start, k), thresholdTarget(alpha, g.N()), nil)
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// EstimateMeetingTime estimates the expected meeting round of two walks on
// the batched engine (starts u and v, one run per trial).
func EstimateMeetingTime(g *graph.Graph, u, v int32, opts MCOptions) (Estimate, error) {
	return EstimateKMeetingTime(g, []int32{u, v}, opts)
}

// EstimateKMeetingTime estimates the expected first-meeting round of the
// synchronized k-walk from the given starts. On bipartite graphs walkers
// started on opposite sides never meet under simultaneous moves; such
// trials exhaust MaxSteps and count as Truncated.
func EstimateKMeetingTime(g *graph.Graph, starts []int32, opts MCOptions) (Estimate, error) {
	if !g.IsConnected() {
		return Estimate{}, fmt.Errorf("walk: meeting time diverges on disconnected graphs")
	}
	if err := checkStarts(g, starts); err != nil {
		return Estimate{}, err
	}
	if len(starts) < 2 {
		return Estimate{}, fmt.Errorf("walk: meeting time requires at least 2 walkers, got %d", len(starts))
	}
	opts, err := opts.normalized()
	if err != nil {
		return Estimate{}, err
	}
	eng := NewEngine(g, EngineOptions{Workers: 1})
	res, err := runTrials(eng, opts, GroupedRunSpec{Starts: starts}, NewGroupCollisionObserver(false), nil)
	if err != nil {
		return Estimate{}, err
	}
	return EstimateFromTrials(res), nil
}

// EstimateKCoalescenceTime estimates the expected full-coalescence round
// of the synchronized k-walk, together with the expected first-meeting
// round of the same runs (for k = 2 the two coincide).
func EstimateKCoalescenceTime(g *graph.Graph, starts []int32, opts MCOptions) (coalesce, meet Estimate, err error) {
	if !g.IsConnected() {
		return Estimate{}, Estimate{}, fmt.Errorf("walk: coalescence time diverges on disconnected graphs")
	}
	if err := checkStarts(g, starts); err != nil {
		return Estimate{}, Estimate{}, err
	}
	if len(starts) < 2 {
		return Estimate{}, Estimate{}, fmt.Errorf("walk: coalescence time requires at least 2 walkers, got %d", len(starts))
	}
	opts, err = opts.normalized()
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	eng := NewEngine(g, EngineOptions{Workers: 1})
	// Coalescence lanes also record each trial's first meeting round, so
	// both estimates come from the same fused run. Waves run sequentially
	// and append their meeting rounds in trial order, so the meet estimate
	// covers exactly the trials the adaptive stop — which watches the
	// coalescence samples — ran.
	col := NewGroupCollisionObserver(true)
	var meets []float64
	meetTruncated := 0
	res, err := runTrials(eng, opts, GroupedRunSpec{Starts: starts}, col, func(wave GroupedResult) {
		for trial := range wave.Rounds {
			m := col.TrialMeetRound(trial)
			if m < 0 {
				m = opts.MaxSteps
				meetTruncated++
			}
			meets = append(meets, float64(m))
		}
	})
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	meet = Estimate{Summary: stats.Summarize(meets), Truncated: meetTruncated}
	return EstimateFromTrials(res), meet, nil
}

// MeanPartialCoverRounds estimates, per cover fraction, the expected round
// the k-walk from start first reaches it — the whole partial-cover curve
// from single runs. Fraction α maps to the count target max(1, ⌊α·n⌋),
// and each trial stops at its largest target; the smaller fractions' rounds
// are read off the trial's first-visit rounds, so each sample equals the
// EstimatePartialCoverTime sample of the same trial. Fractions not reached
// within MaxSteps are censored at MaxSteps and counted in that fraction's
// Truncated. With Precision enabled the stop rule watches the largest
// fraction's samples and every fraction reports those same trials (the
// EstimateKCoalescenceTime pattern). First-visit export limits MaxSteps to
// 2^31-1 rounds.
func MeanPartialCoverRounds(g *graph.Graph, start int32, k int, fractions []float64, opts MCOptions) ([]Estimate, error) {
	if k < 1 {
		return nil, fmt.Errorf("walk: k must be >= 1")
	}
	if len(fractions) == 0 {
		return nil, fmt.Errorf("walk: need at least one fraction")
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("walk: cover time diverges on disconnected graphs")
	}
	if err := checkStarts(g, []int32{start}); err != nil {
		return nil, err
	}
	targets := make([]int, len(fractions))
	for i, f := range fractions {
		if !(f > 0 && f <= 1) {
			return nil, fmt.Errorf("walk: cover fraction %v must be in (0,1]", f)
		}
		targets[i] = thresholdTarget(f, g.N())
	}
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	eng := NewEngine(g, EngineOptions{Workers: 1})
	cov := &GroupCoverObserver{Target: slices.Max(targets), RecordFirst: true}
	rounds := make([][]float64, len(fractions))
	truncated := make([]int, len(fractions))
	var visits []int64
	res, err := runTrials(eng, opts, GroupedRunSpec{Starts: commonStarts(start, k)}, cov, func(wave GroupedResult) {
		for trial := range wave.Rounds {
			// The target-th smallest first-visit round is the round the
			// distinct count reached target.
			visits = visits[:0]
			for _, f := range cov.TrialFirstVisits(trial) {
				if f >= 0 {
					visits = append(visits, f)
				}
			}
			slices.Sort(visits)
			for i, target := range targets {
				r := opts.MaxSteps
				if target <= len(visits) {
					r = visits[target-1]
				} else {
					truncated[i]++
				}
				rounds[i] = append(rounds[i], float64(r))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	ests := make([]Estimate, len(fractions))
	for i := range ests {
		ests[i] = Estimate{Summary: stats.Summarize(rounds[i]), Truncated: truncated[i], Waves: res.Waves, Converged: res.Converged}
	}
	return ests, nil
}

// MeanCoverageProfile returns the expected number of distinct vertices the
// k-walk from start has visited after each round up to horizon (index 0 is
// the state at t=0), averaged over opts.Trials trials. The curve's long
// flat tail is why the last few vertices dominate C^k. Horizons are limited
// to 2^31-1 rounds, the range of exact first-visit export.
func MeanCoverageProfile(g *graph.Graph, start int32, k int, horizon int64, opts MCOptions) ([]float64, error) {
	if k < 1 || horizon < 1 {
		return nil, fmt.Errorf("walk: need k >= 1 and horizon >= 1")
	}
	// Each trial derives its profile from the engine's first-visit rounds:
	// the coverage count after round t is the number of vertices whose
	// first visit is at most t. Trials run as one trial-fused pass with
	// first-visit recording.
	opts.MaxSteps = horizon
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	eng := NewEngine(g, EngineOptions{Workers: 1})
	starts := commonStarts(start, k)
	profileOf := func(first []int64) []int {
		profile := make([]int, horizon+1)
		for _, f := range first {
			if f >= 0 {
				profile[f]++
			}
		}
		for t := int64(1); t <= horizon; t++ {
			profile[t] += profile[t-1]
		}
		return profile
	}
	cov := &GroupCoverObserver{RecordFirst: true}
	if _, err := eng.RunGrouped(GroupedRunSpec{
		Trials:    opts.Trials,
		Starts:    starts,
		Seed:      opts.Seed,
		MaxRounds: horizon,
		Workers:   opts.Workers,
	}, cov); err != nil {
		return nil, err
	}
	profiles := make([][]int, opts.Trials)
	for trial := range profiles {
		profiles[trial] = profileOf(cov.TrialFirstVisits(trial))
	}
	mean := make([]float64, horizon+1)
	for _, p := range profiles {
		for t, c := range p {
			mean[t] += float64(c)
		}
	}
	for t := range mean {
		mean[t] /= float64(len(profiles))
	}
	return mean, nil
}
