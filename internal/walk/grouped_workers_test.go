package walk

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"testing"

	"manywalks/internal/graph"
)

// testWorkerGrid returns the worker counts the multicore determinism
// suites sweep. MANYWALKS_TEST_WORKERS appends an extra count (the CI
// -race job sets it above GOMAXPROCS so shard merges actually interleave
// under the race detector).
func testWorkerGrid() []int {
	ws := []int{1, 2, 3, 4}
	if v := os.Getenv("MANYWALKS_TEST_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && !slices.Contains(ws, n) {
			ws = append(ws, n)
		}
	}
	return ws
}

// groupedOutcome flattens everything a grouped run exposes — per-trial
// rounds and stop flags plus every observer output — so runs compare with
// one slices.Equal.
type groupedOutcome struct {
	rounds  []int64
	stopped []bool
	extra   []int64
}

func (o groupedOutcome) equal(p groupedOutcome) bool {
	return slices.Equal(o.rounds, p.rounds) &&
		slices.Equal(o.stopped, p.stopped) &&
		slices.Equal(o.extra, p.extra)
}

// TestGroupedDeterministicAcrossWorkers is the multicore replay grid: for
// every kernel, graph family, observer kind, worker count, and batch
// size, the grouped pass must be bit-for-bit equal to the Workers=1 run —
// rounds, stop flags, cover counts, exact first-visit rounds, hit
// vertex/walker tie-breaks, meeting and coalescence rounds, and class
// counts. Lane ownership, not execution order, determines every draw;
// this grid is what makes that claim enforceable. It mirrors
// TestEngineDeterministicAcrossConfigs one layer up.
func TestGroupedDeterministicAcrossWorkers(t *testing.T) {
	const (
		trials = 18
		k      = 9 // >= minFusedLaneWalkers: uniform cover runs the fused path
		seed   = 4242
		budget = int64(1 << 13)
	)
	observers := []string{"cover", "hit", "meet"}

	runOne := func(t *testing.T, g *graph.Graph, kern Kernel, batch, workers int,
		obsKind string, starts []int32, marked []bool) groupedOutcome {
		t.Helper()
		eng := NewEngine(g, EngineOptions{Workers: 1, BatchRounds: batch, Kernel: kern})
		spec := GroupedRunSpec{
			Trials:    trials,
			Starts:    starts,
			Seed:      seed,
			MaxRounds: budget,
			Workers:   workers,
		}
		var out groupedOutcome
		var res GroupedResult
		var err error
		switch obsKind {
		case "cover":
			cov := NewGroupCoverObserver(0)
			cov.RecordFirst = true
			res, err = eng.RunGrouped(spec, cov)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < trials; i++ {
				out.extra = append(out.extra, int64(cov.TrialCount(i)))
				out.extra = append(out.extra, cov.TrialFirstVisits(i)...)
			}
		case "hit":
			hit := NewGroupHitObserver(marked)
			res, err = eng.RunGrouped(spec, hit)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < trials; i++ {
				hr := hit.TrialResult(i, res.Rounds[i])
				out.extra = append(out.extra, int64(hr.Vertex), int64(hr.Walker))
			}
		case "meet":
			col := NewGroupCollisionObserver(false)
			res, err = eng.RunGrouped(spec, col)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < trials; i++ {
				out.extra = append(out.extra,
					col.TrialMeetRound(i), col.TrialCoalescenceRound(i), int64(col.TrialGroups(i)))
			}
		}
		out.rounds, out.stopped = res.Rounds, res.Stopped
		return out
	}

	for _, fam := range groupedTestFamilies() {
		g, start := fam.build()
		n := g.N()
		// Distinct per-walker starts exercise placement-sensitive state
		// (round-0 cover counts, hit tie-breaks, early meetings).
		starts := make([]int32, k)
		for i := range starts {
			starts[i] = (start + int32(i*5)) % int32(n)
		}
		marked := make([]bool, n)
		for v := 3; v < n; v += 7 {
			marked[v] = true
		}
		for _, kern := range Kernels() {
			for _, obsKind := range observers {
				want := runOne(t, g, kern, 0, 1, obsKind, starts, marked)
				for _, workers := range testWorkerGrid() {
					for _, batch := range []int{0, 5} {
						if workers == 1 && batch == 0 {
							continue // the baseline itself
						}
						name := fmt.Sprintf("%s/%s/%s/w%d/b%d", fam.name, kern, obsKind, workers, batch)
						t.Run(name, func(t *testing.T) {
							got := runOne(t, g, kern, batch, workers, obsKind, starts, marked)
							if !got.equal(want) {
								t.Fatalf("outcome diverged from Workers=1 baseline:\n got %+v\nwant %+v", got, want)
							}
						})
					}
				}
			}
		}
	}

	// Shard-local retirement: each worker steps, retires and censors its
	// own lane shard, so these shapes make the shards diverge — uneven
	// spans, lanes retired at round 0 before the spawn (compaction
	// reorders the lanes the shards then own), a budget that censors the
	// lanes of one shard only, passes split into several chunks (each
	// chunk re-spawns its shards and restarts the cover epochs), and a
	// two-observer StopWhenAll lane.
	cyc := graph.Cycle(64)
	near := make([]bool, cyc.N()) // marked neighbours of vertex 31
	near[30], near[32] = true, true
	sparse := make([]bool, cyc.N())
	for v := 3; v < cyc.N(); v += 7 {
		sparse[v] = true
	}
	// placeAt puts all of a trial's walkers on one vertex chosen per trial.
	placeAt := func(at func(trial int) int32) func(int, []int32) {
		return func(trial int, starts []int32) {
			for i := range starts {
				starts[i] = at(trial)
			}
		}
	}
	lazy := Lazy(0.5)
	cases := []struct {
		name   string
		kern   Kernel
		spec   GroupedRunSpec
		kinds  []string
		marked []bool
		// chunked asserts the pass splits into several chunks.
		chunked bool
		check   func(t *testing.T, base groupedOutcome)
	}{
		{name: "uneven7/cover", kern: lazy, kinds: []string{"cover"},
			spec: GroupedRunSpec{Trials: 7, Starts: commonStarts(5, 3), Seed: 11, MaxRounds: budget}},
		{name: "uneven7/hit", kern: Uniform(), kinds: []string{"hit"}, marked: sparse,
			spec: GroupedRunSpec{Trials: 7, Starts: commonStarts(5, 3), Seed: 11, MaxRounds: budget}},
		{name: "round0", kern: Uniform(), kinds: []string{"hit"}, marked: near,
			spec: GroupedRunSpec{Trials: 10, Starts: make([]int32, 3), Seed: 12, MaxRounds: budget,
				StartsFor: placeAt(func(tr int) int32 { return [3]int32{30, 0, 5}[tr%3] })},
			check: func(t *testing.T, base groupedOutcome) {
				for tr := 0; tr < 10; tr += 3 {
					if !base.stopped[tr] || base.rounds[tr] != 0 {
						t.Fatalf("trial %d should stop at round 0, got (%d,%v)", tr, base.rounds[tr], base.stopped[tr])
					}
				}
			}},
		{name: "censor-one-shard", kern: Uniform(), kinds: []string{"hit"}, marked: near,
			spec: GroupedRunSpec{Trials: 8, Starts: make([]int32, 3), Seed: 13, MaxRounds: 20,
				StartsFor: placeAt(func(tr int) int32 { return [2]int32{31, 0}[tr/4] })},
			check: func(t *testing.T, base groupedOutcome) {
				for tr := 0; tr < 8; tr++ {
					if want := tr < 4; base.stopped[tr] != want {
						t.Fatalf("trial %d stopped %v, want %v (near lanes hit at round 1, far lanes are censored)", tr, base.stopped[tr], want)
					}
				}
			}},
		{name: "multichunk/cover", kern: lazy, kinds: []string{"cover"}, chunked: true,
			spec: GroupedRunSpec{Trials: 20, Starts: commonStarts(0, 2048), Seed: 14, MaxRounds: budget}},
		{name: "multichunk/hit", kern: Uniform(), kinds: []string{"hit"}, marked: sparse, chunked: true,
			spec: GroupedRunSpec{Trials: 20, Starts: commonStarts(0, 2048), Seed: 14, MaxRounds: budget}},
		{name: "cover+hit", kern: Uniform(), kinds: []string{"cover", "hit"}, marked: sparse,
			spec: GroupedRunSpec{Trials: 18, Starts: commonStarts(0, 3), Seed: 15, MaxRounds: budget}},
	}
	for _, c := range cases {
		if c.chunked && groupChunkLanes(c.spec.Trials, len(c.spec.Starts), 0) >= c.spec.Trials {
			t.Fatalf("%s: expected the pass to split into several chunks", c.name)
		}
		eng := NewEngine(cyc, EngineOptions{Workers: 1, Kernel: c.kern})
		c.spec.Workers = 1
		want := runGroupedKinds(t, eng, c.spec, c.kinds, c.marked)
		if c.check != nil {
			c.check(t, want)
		}
		for _, workers := range testWorkerGrid() {
			if workers == 1 {
				continue
			}
			t.Run(fmt.Sprintf("shards/%s/w%d", c.name, workers), func(t *testing.T) {
				spec := c.spec
				spec.Workers = workers
				if got := runGroupedKinds(t, eng, spec, c.kinds, c.marked); !got.equal(want) {
					t.Fatalf("outcome diverged from Workers=1 baseline:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// runGroupedKinds runs spec with one observer per kind ("cover" with
// exact first-visit export, "hit" on marked) under StopWhenAll and
// flattens every output.
func runGroupedKinds(t *testing.T, eng *Engine, spec GroupedRunSpec, kinds []string, marked []bool) groupedOutcome {
	t.Helper()
	var obs []GroupObserver
	for _, kind := range kinds {
		switch kind {
		case "cover":
			cov := NewGroupCoverObserver(0)
			cov.RecordFirst = true
			obs = append(obs, cov)
		case "hit":
			obs = append(obs, NewGroupHitObserver(marked))
		}
	}
	res, err := eng.RunGrouped(spec, obs...)
	if err != nil {
		t.Fatal(err)
	}
	out := groupedOutcome{rounds: res.Rounds, stopped: res.Stopped}
	for i := 0; i < spec.Trials; i++ {
		for _, o := range obs {
			switch o := o.(type) {
			case *GroupCoverObserver:
				out.extra = append(out.extra, int64(o.TrialCount(i)))
				out.extra = append(out.extra, o.TrialFirstVisits(i)...)
			case *GroupHitObserver:
				hr := o.TrialResult(i, res.Rounds[i])
				out.extra = append(out.extra, int64(hr.Vertex), int64(hr.Walker))
			}
		}
	}
	return out
}
