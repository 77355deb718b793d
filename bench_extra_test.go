// Benchmarks for the extension experiments (the second wave of the
// harness.Experiments catalog): the Theorem 24 lower bound, partial cover,
// the lollipop worst case, the extra Theorem 4 families, churn robustness,
// coverage profiles and the network search trade-off.
package manywalks_test

import (
	"testing"

	"manywalks"
	"manywalks/internal/harness"
)

// BenchmarkThm24GridLowerBound validates the torus projection bound (E-thm24).
func BenchmarkThm24GridLowerBound(b *testing.B) {
	runReport(b, harness.RunTheorem24GridLowerBound)
}

// BenchmarkThm14Bound validates Theorem 14's cover+hitting bound and
// Corollary 15's near-linear speed-up (E-thm14).
func BenchmarkThm14Bound(b *testing.B) {
	runReport(b, harness.RunTheorem14Bound)
}

// BenchmarkConj11SpeedupFloor probes Conjecture 11's Ω(log k) floor (E-conj11).
func BenchmarkConj11SpeedupFloor(b *testing.B) {
	runReport(b, harness.RunConjecture11Probe)
}

// BenchmarkPartialCoverTail measures the cover-time tail structure (E-partial).
func BenchmarkPartialCoverTail(b *testing.B) {
	runReport(b, harness.RunPartialCoverTail)
}

// BenchmarkLollipopWorstCase measures the Θ(n³) lollipop growth (E-lollipop).
func BenchmarkLollipopWorstCase(b *testing.B) {
	runReport(b, harness.RunLollipopWorstCase)
}

// BenchmarkExtraFamilies covers trees, RGG and random regular graphs
// (E-families).
func BenchmarkExtraFamilies(b *testing.B) {
	runReport(b, harness.RunExtraFamilies)
}

// BenchmarkCoverageProfile reports the coverage-vs-time curves (E-profile).
func BenchmarkCoverageProfile(b *testing.B) {
	runReport(b, harness.RunCoverageProfile)
}

// BenchmarkSearchTradeoff runs the netsim latency/bandwidth table (E-search).
func BenchmarkSearchTradeoff(b *testing.B) {
	runReport(b, harness.RunSearchTradeoff)
}

// BenchmarkChurnRobustness measures cover under topology churn (A-churn).
func BenchmarkChurnRobustness(b *testing.B) {
	runReport(b, harness.RunChurnRobustness)
}

// BenchmarkAblationNonBacktracking compares simple and non-backtracking
// k-walk cover times (A-nbrw).
func BenchmarkAblationNonBacktracking(b *testing.B) {
	runReport(b, harness.RunAblationNonBacktracking)
}

// Engine micro-benchmarks for the extension substrates.

func BenchmarkEffectiveResistanceCG4096(b *testing.B) {
	g := manywalks.NewTorus2D(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := manywalks.EffectiveResistanceCG(g, 0, int32(g.N()/2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMembershipSampling(b *testing.B) {
	g := manywalks.NewMargulisExpander(16)
	r := manywalks.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		manywalks.RunMembershipSampling(g, 0, 100, 32, r)
	}
}

func BenchmarkChurnedKCover(b *testing.B) {
	g := manywalks.NewTorus2D(16)
	opts := manywalks.MCOptions{Trials: 8, Seed: 1, MaxSteps: 1 << 22, Workers: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := manywalks.KCoverTimeUnderChurn(g, 0, 8, manywalks.SwapChurner{SwapsPerRound: 4}, opts); err != nil {
			b.Fatal(err)
		}
	}
}
