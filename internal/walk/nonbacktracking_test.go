package walk

import (
	"testing"

	"manywalks/internal/graph"
)

// The non-backtracking walk runs on the engine's NoBacktrack kernel; these
// tests pin its step law through recorded trajectories.

func TestNBWalkerNeverBacktracks(t *testing.T) {
	g := graph.Torus2D(5) // degree 4 everywhere: backtracking never forced
	path := enginePaths(t, g, NoBacktrack(), []int32{0}, 1, 5000)[0]
	for i := 2; i < len(path); i++ {
		if path[i] == path[i-2] {
			t.Fatalf("backtracked %d -> %d -> %d at step %d", path[i-2], path[i-1], path[i], i)
		}
		if !g.HasEdge(path[i-1], path[i]) {
			t.Fatalf("illegal move %d -> %d", path[i-1], path[i])
		}
	}
}

func TestNBWalkerDegreeOneFallsBack(t *testing.T) {
	// On a path the endpoints force a reversal.
	g := graph.Path(3)
	for seed := uint64(0); seed < 16; seed++ {
		path := enginePaths(t, g, NoBacktrack(), []int32{1}, seed, 2)[0]
		if path[2] != 1 {
			t.Fatalf("endpoint must bounce back to 1, got %d (via %d)", path[2], path[1])
		}
	}
}

func TestNBWalkerUniformAmongAllowed(t *testing.T) {
	// At a degree-4 vertex entered from a known previous vertex, the three
	// allowed next neighbors must be equally likely: condition the second
	// step on the first having gone to 0's first neighbor.
	g := graph.Torus2D(5)
	from := g.Neighbors(0)[0]
	counts := map[int32]int{}
	total := 0
	for _, path := range enginePaths(t, g, NoBacktrack(), make([]int32, 40000), 3, 2) {
		if path[1] == from {
			counts[path[2]]++
			total++
		}
	}
	if len(counts) != 3 {
		t.Fatalf("allowed targets %d, want 3", len(counts))
	}
	for v, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.30 || frac > 0.37 {
			t.Fatalf("neighbor %d frequency %.3f over %d samples", v, frac, total)
		}
	}
}

func TestNBCoverCycleIsBallistic(t *testing.T) {
	// On the cycle the non-backtracking walk commits to a direction and
	// covers in exactly n-1 steps, versus Θ(n²) for the simple walk.
	n := 64
	eng := NewEngine(graph.Cycle(n), EngineOptions{Kernel: NoBacktrack()})
	for trial := uint64(0); trial < 20; trial++ {
		res := eng.KCoverFrom(0, 1, trial, 1<<20)
		if !res.Covered || res.Steps != int64(n-1) {
			t.Fatalf("NB cycle cover %+v, want exactly %d", res, n-1)
		}
	}
}

func TestNBCoverBeatsSimpleOnTorus(t *testing.T) {
	g := graph.Torus2D(8)
	opts := MCOptions{Trials: 400, Seed: 7, MaxSteps: 1 << 22}
	nb, err := EstimateNBCoverTime(g, 0, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	simple, err := EstimateCoverTime(g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Mean() >= simple.Mean() {
		t.Fatalf("NB %v not faster than simple %v", nb.Mean(), simple.Mean())
	}
}

func TestKNBCoverScalesWithK(t *testing.T) {
	g := graph.Torus2D(8)
	opts := MCOptions{Trials: 300, Seed: 9, MaxSteps: 1 << 22}
	c1, err := EstimateNBCoverTime(g, 0, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	c8, err := EstimateNBCoverTime(g, 0, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	speedup := c1.Mean() / c8.Mean()
	if speedup < 4 || speedup > 12 {
		t.Fatalf("NB 8-walk speed-up %v, want near 8", speedup)
	}
}

func TestNBValidation(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := EstimateNBCoverTime(g, 0, 0, MCOptions{Trials: 2, MaxSteps: 10}); err == nil {
		t.Fatal("k=0 accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	if _, err := EstimateNBCoverTime(b.Build("disc"), 0, 1, MCOptions{Trials: 2, MaxSteps: 10}); err == nil {
		t.Fatal("disconnected accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad start")
		}
	}()
	NewEngine(g, EngineOptions{Kernel: NoBacktrack()}).KCoverFrom(9, 1, 1, 10)
}
