package walk

import (
	"fmt"
	"sync"

	"manywalks/internal/rng"
)

// This file implements the trial-fused Monte Carlo driver: RunGrouped steps
// Trials independent runs of the same shape — k walkers each, on one
// compiled graph — as a single wide engine pass. The walker array is
// partitioned into *trial lanes* of k walkers; lane j of the pass holds one
// trial's walkers, with its own observer state (first-visit lane, hit flag,
// collision tracker), its own satisfaction round, and per-walker RNG
// streams derived exactly as the sequential path derives them:
//
//	trial t's driver stream is rng.NewStream(spec.Seed, t) — the stream
//	MonteCarlo hands its closures — from which the trial draws its
//	placement (spec.Place) and then its engine seed (one Uint64), and
//	walker i of the trial runs on rng.NewStream(engineSeed, i), exactly
//	like Engine.Run. Every per-trial sample is therefore bit-for-bit
//	equal to the sequential MonteCarlo + Engine.Run output.
//
// Trials are independent, so lanes never interact: each chunk splits its
// lanes into one contiguous shard per worker, and every worker drives its
// shard to completion with no barrier in between — it steps, scans,
// retires and censors only its own lanes, so a lane's outcome cannot
// depend on Workers or on how the shards are scheduled. When a lane's
// stop condition has fired it *retires*: its result is recorded and the
// position/stream/reservoir/observer lanes swap-compact against the
// shard's last live lane, so the heavy tail of slow trials never drags
// the width of the shard — cover times are heavy-tailed, and without
// compaction fusion would lose its win stepping finished trials to the
// horizon.
//
// Two shard bodies drive the lanes. The uniform kernel on a padded graph
// runs the fused two-step loop of groupedfused.go (pair transition table,
// block-generated draws, inline first-visit scan), one lane at a time.
// Everything else — the non-uniform kernels, CSR-mode graphs, and the
// hit/collision observers — runs the generic body below: the engine's own
// stepRound over the shard's live lanes, round-major, with per-round lane
// scans. Both produce identical per-trial results;
// TestFusedMatchesSequentialTrials pins them against the sequential
// engine across a Workers × BatchRounds grid. Any budget runs here: cover
// lanes keep their uint32 first-visit cells relative to a per-lane epoch
// base (see coverEpochSpan), and every other lane state holds int64
// rounds.

// GroupedRunSpec describes Trials independent k-walk runs of one shape.
type GroupedRunSpec struct {
	// Trials is the number of independent runs (required, > 0).
	Trials int
	// Starts is the placement every trial shares (len k >= 1). When Place
	// is set it is the scratch template Place overwrites per trial.
	Starts []int32
	// Place, when non-nil, fills starts (a scratch slice of len k) with
	// trial's placement, drawing any randomness from r — the trial's
	// driver stream, positioned exactly where MonteCarlo's closures see
	// it. Mutually exclusive with Seeds and StartsFor.
	Place func(trial int, r *rng.Source, starts []int32)
	// StartsFor, when non-nil, overwrites starts (a scratch slice of len
	// k) with trial's placement deterministically — it draws no
	// randomness, so unlike Place it composes with Seeds. It is the
	// externally-coalesced shape: a serving layer folding requests with
	// different origins into one pass supplies each lane's placement here
	// and its engine seed through Seeds, reproducing each request's
	// standalone Engine.Run exactly. Mutually exclusive with Place.
	StartsFor func(trial int, starts []int32)
	// Seed is the root seed; trial t's driver stream is NewStream(Seed, t)
	// and its engine seed is the stream's first draw after Place.
	Seed uint64
	// TrialBase offsets the trial index used for seed derivation and the
	// Place/StartsFor callbacks: the pass runs trials [TrialBase,
	// TrialBase+Trials) of the caller's global schedule, each bit-for-bit
	// equal to the same trial of a single TrialBase-0 pass. It is how the
	// adaptive driver runs wave w as trials [w·W, (w+1)·W) without
	// perturbing any trial's stream. Outputs stay locally indexed
	// 0..Trials-1. Seeds, when set, is likewise local (len Trials — the
	// caller already positioned it).
	TrialBase int
	// Seeds, when non-nil, gives every trial an explicit engine seed
	// (len Trials), bypassing the Seed/Place derivation — the shape of
	// callers like the netsim query sweeps that pick per-query seeds.
	Seeds []uint64
	// MaxRounds is the per-trial round budget (required, > 0).
	MaxRounds int64
	// Workers caps the goroutines stepping lane shards (0: the engine's
	// worker count). Results never depend on it.
	Workers int
}

// GroupedResult reports every trial's outcome: the exact round its stop
// condition fired (Stopped true) or the exhausted budget (Stopped false).
// Waves and Converged are filled only by the adaptive (sequential stopping)
// driver — RunGrouped itself leaves them zero.
type GroupedResult struct {
	Rounds  []int64
	Stopped []bool
	// Waves is the number of adaptive waves run (0 for a fixed-count run).
	Waves int
	// Converged reports the adaptive stop rule was met before MaxTrials.
	Converged bool
}

// GroupObserver watches the trial lanes of one grouped run. Like Observer,
// the method set is unexported: the determinism contract (lane-private
// scans by the owning worker, slot-stable per-trial state) is internal to
// this package. Lane state is indexed through slots that survive
// compaction, so retiring a trial never copies observer lanes.
type GroupObserver interface {
	// validateGroup checks configuration against the run shape.
	validateGroup(n, k, trials int, maxRounds int64) error
	// bindGroup sizes per-trial outputs and per-lane scratch: the run has
	// trials trials total, at most lanes concurrent lanes of k walkers,
	// scanned by at most workers goroutines.
	bindGroup(e *Engine, trials, lanes, k, workers int)
	// startLane binds lane ln to trial and observes its round-0 placement.
	startLane(ln, trial int, starts []int32)
	// scanRound is called by worker w after round t's step pass with lanes
	// [loLane, hiLane) fresh in gs.pos. It may touch only lane-private and
	// worker-private state.
	scanRound(gs *groupState, loLane, hiLane, w int, t int64)
	// laneSatisfied returns the first round lane ln's predicate held, or
	// -1. Monotone per lane.
	laneSatisfied(ln int) int64
	// finishLane records lane ln's terminal state into trial-indexed
	// storage at retirement. It runs on the worker owning the lane, so it
	// may write only lane- and trial-indexed state.
	finishLane(ln, trial int, rounds int64, stopped bool)
	// moveLane relocates lane src's state onto slot dst during compaction
	// (slot indirections swap; no lane content is copied).
	moveLane(dst, src int)
}

// neverSatisfiable lets an observer prove up front that no amount of
// stepping can satisfy it, so the driver can censor its trials without
// running them.
type neverSatisfiable interface {
	neverSatisfied() bool
}

// epochRebaser is implemented by observers whose lane state holds rounds
// relative to an epoch base; the generic shard lets worker w rebase its
// live lanes [loLane, hiLane) before every batch of rounds (t0, t0+b], so
// no per-round scan pays for it.
type epochRebaser interface {
	rebase(w, loLane, hiLane int, t0, b int64)
}

// workerWord is one worker's private int64 on a cache line of its own.
// Lane shards run concurrently for a whole chunk, and per-worker words
// packed side by side (or next to another hot object) would bounce their
// line between cores every round: an unpadded cover epoch cost the
// two-worker generic pass its whole gain.
type workerWord struct {
	v int64
	_ [56]byte
}

// laneCelled is implemented by observers whose per-lane state scales with
// the vertex count; the driver narrows chunks so their cells stay within
// the cache budget. Observers with O(1) lane state fuse at full width.
type laneCelled interface {
	perLaneCells(n int) int
}

// groupState is the mutable state of one grouped chunk: the embedded
// runState holds the fused walker arrays (pos/streams/res/prev sized
// lanes × k), so the engine's stepRound kernels drive the compacted lane
// set unchanged.
type groupState struct {
	runState
	laneK      int        // walkers per lane
	lanes      int        // active lanes; lane j owns walkers [j*laneK, (j+1)*laneK)
	laneTrial  []int32    // active lane -> trial index
	laneStarts []int32    // seeding scratch, len laneK
	driver     rng.Source // per-trial driver-stream scratch (pooled: its pointer flows into spec.Place, so a local would escape)
	wg         sync.WaitGroup
}

// newGroupState borrows or allocates chunk state for lanes trial lanes of
// k walkers each.
func (e *Engine) newGroupState(lanes, k int) *groupState {
	gst, _ := e.gpool.Get().(*groupState)
	if gst == nil {
		gst = &groupState{}
	}
	width := lanes * k
	gst.laneK = k
	gst.lanes = lanes
	gst.k = width
	if cap(gst.pos) < width {
		gst.pos = make([]int32, width)
		gst.streams = make([]rng.Source, width)
		gst.res = make([]uint64, width)
	}
	gst.pos, gst.streams, gst.res = gst.pos[:width], gst.streams[:width], gst.res[:width]
	if e.prog.needPrev {
		if cap(gst.prev) < width {
			gst.prev = make([]int32, width)
		}
		gst.prev = gst.prev[:width]
	}
	if cap(gst.laneTrial) < lanes {
		gst.laneTrial = make([]int32, lanes)
	}
	gst.laneTrial = gst.laneTrial[:lanes]
	gst.laneStarts = growSlice(gst.laneStarts, k)
	return gst
}

// growSlice returns s resized to n, reusing capacity when it suffices.
// Contents are unspecified: callers overwrite every slot before reading.
// It is the reuse primitive behind RunGroupedInto's zero-steady-state
// allocation contract — once a buffer has reached its high-water mark,
// later runs of the same or smaller shape never touch the allocator.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// retireLane compacts lane ln out of the live lanes ending at last: lane
// last's walker state moves into its slot. The retired lane's walker state
// is dead — its result is already recorded. Callers own every lane in
// [ln, last], so shards compact concurrently.
func (gst *groupState) retireLane(ln, last int, obs []GroupObserver) {
	if ln != last {
		k := gst.laneK
		d, s := ln*k, last*k
		copy(gst.pos[d:d+k], gst.pos[s:s+k])
		copy(gst.res[d:d+k], gst.res[s:s+k])
		copy(gst.streams[d:d+k], gst.streams[s:s+k])
		if gst.prev != nil {
			copy(gst.prev[d:d+k], gst.prev[s:s+k])
		}
		gst.laneTrial[ln] = gst.laneTrial[last]
		for _, o := range obs {
			o.moveLane(ln, last)
		}
	}
}

// groupChunkLanes bounds the number of concurrent lanes so the fused pass
// stays cache-resident: at most maxGroupWalkers walkers, and at most
// maxGroupLaneCells observer lane cells (cellsPerLane is the widest
// per-lane cell state any observer of the run allocates — zero for
// observers like the hit lanes whose per-lane state is O(1), which then
// fuse at full width on any graph size). Trials beyond the chunk run in
// subsequent chunks.
func groupChunkLanes(trials, k, cellsPerLane int) int {
	const (
		maxGroupWalkers   = 1 << 14 // 16384 walkers: 512 KiB of stream state
		maxGroupLaneCells = 1 << 22 // 4M uint32 first-visit cells: 16 MiB
	)
	lanes := trials
	if byWalkers := maxGroupWalkers / k; lanes > byWalkers {
		lanes = byWalkers
	}
	if cellsPerLane > 0 {
		if byCells := maxGroupLaneCells / cellsPerLane; lanes > byCells {
			lanes = byCells
		}
	}
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// validateGrouped checks the spec and fills defaults.
func (e *Engine) validateGrouped(spec *GroupedRunSpec, obs []GroupObserver) error {
	if len(obs) == 0 {
		return fmt.Errorf("walk: grouped run requires at least one observer")
	}
	if spec.Trials <= 0 {
		return fmt.Errorf("walk: grouped run requires Trials > 0, got %d", spec.Trials)
	}
	k := len(spec.Starts)
	if k == 0 {
		return fmt.Errorf("walk: k-walk requires at least one walker")
	}
	if spec.MaxRounds <= 0 {
		return fmt.Errorf("walk: grouped run requires MaxRounds > 0, got %d", spec.MaxRounds)
	}
	if spec.Seeds != nil {
		if len(spec.Seeds) != spec.Trials {
			return fmt.Errorf("walk: %d explicit seeds for %d trials", len(spec.Seeds), spec.Trials)
		}
		if spec.Place != nil {
			return fmt.Errorf("walk: Seeds and Place are mutually exclusive")
		}
	}
	if spec.StartsFor != nil && spec.Place != nil {
		return fmt.Errorf("walk: StartsFor and Place are mutually exclusive")
	}
	n := e.g.N()
	if spec.Place == nil && spec.StartsFor == nil {
		for i, s := range spec.Starts {
			if s < 0 || int(s) >= n {
				return fmt.Errorf("walk: start[%d] = %d out of range [0,%d)", i, s, n)
			}
		}
	}
	for _, o := range obs {
		if err := o.validateGroup(n, k, spec.Trials, spec.MaxRounds); err != nil {
			return err
		}
	}
	if spec.Workers <= 0 {
		spec.Workers = e.workers
	}
	return nil
}

// RunGrouped executes spec.Trials independent runs as fused trial-lane
// passes and returns every trial's outcome. A trial stops at the first
// round all observers are satisfied for its lane (the StopWhenAll
// contract); trials that exhaust MaxRounds report it with Stopped false.
// Per-trial results are bit-for-bit equal to running each trial through
// Engine.Run with the derivation documented on GroupedRunSpec, regardless
// of Workers, batch partitioning, and chunking.
func (e *Engine) RunGrouped(spec GroupedRunSpec, observers ...GroupObserver) (GroupedResult, error) {
	var res GroupedResult
	if err := e.RunGroupedInto(spec, &res, observers...); err != nil {
		return GroupedResult{}, err
	}
	return res, nil
}

// RunGroupedInto is RunGrouped writing its outcome into a caller-owned
// result, reusing res.Rounds/res.Stopped capacity when it suffices. A
// caller that keeps res (and its observers) across passes reaches zero
// steady-state allocation: the engine's chunk state is pooled, the
// observers reuse their lane scratch and per-trial outputs, and this entry
// point removes the last per-pass make — the shape the serving layer's
// dispatch ticks run. On error the contents of res are unspecified.
func (e *Engine) RunGroupedInto(spec GroupedRunSpec, res *GroupedResult, observers ...GroupObserver) error {
	if err := e.validateGrouped(&spec, observers); err != nil {
		return err
	}
	k := len(spec.Starts)
	cellsPerLane := 0
	for _, o := range observers {
		if lc, ok := o.(laneCelled); ok {
			if c := lc.perLaneCells(e.g.N()); c > cellsPerLane {
				cellsPerLane = c
			}
		}
	}
	chunk := groupChunkLanes(spec.Trials, k, cellsPerLane)
	workers := spec.Workers
	if workers > chunk {
		workers = chunk
	}
	for _, o := range observers {
		o.bindGroup(e, spec.Trials, chunk, k, workers)
	}
	res.Rounds = growSlice(res.Rounds, spec.Trials)
	res.Stopped = growSlice(res.Stopped, spec.Trials)
	res.Waves, res.Converged = 0, false
	gst := e.newGroupState(chunk, k)
	defer e.gpool.Put(gst)
	for c0 := 0; c0 < spec.Trials; c0 += chunk {
		m := chunk
		if m > spec.Trials-c0 {
			m = spec.Trials - c0
		}
		if err := e.runGroupedChunk(gst, &spec, observers, res, c0, m); err != nil {
			return err
		}
	}
	return nil
}

// seedLane derives and installs trial's placement and walker streams into
// lane ln, mirroring the sequential derivation exactly.
func (e *Engine) seedLane(gst *groupState, spec *GroupedRunSpec, ln, trial int) error {
	k := gst.laneK
	driver := &gst.driver
	laneStarts := gst.laneStarts
	copy(laneStarts, spec.Starts)
	// gTrial is the trial's index in the caller's global schedule — the
	// index every stream derivation and placement callback sees. Outputs
	// stay indexed by the pass-local trial.
	gTrial := spec.TrialBase + trial
	if spec.StartsFor != nil {
		spec.StartsFor(gTrial, laneStarts)
		n := e.g.N()
		for i, s := range laneStarts {
			if s < 0 || int(s) >= n {
				return fmt.Errorf("walk: trial %d start[%d] = %d out of range [0,%d)", gTrial, i, s, n)
			}
		}
	}
	var engineSeed uint64
	if spec.Seeds != nil {
		engineSeed = spec.Seeds[trial]
	} else {
		driver.Reseed(rng.StreamSeed(spec.Seed, uint64(gTrial)))
		if spec.Place != nil {
			spec.Place(gTrial, driver, laneStarts)
			n := e.g.N()
			for i, s := range laneStarts {
				if s < 0 || int(s) >= n {
					return fmt.Errorf("walk: trial %d start[%d] = %d out of range [0,%d)", gTrial, i, s, n)
				}
			}
		}
		engineSeed = driver.Uint64()
	}
	base := ln * k
	for i := 0; i < k; i++ {
		gst.pos[base+i] = laneStarts[i]
		gst.streams[base+i].Reseed(rng.StreamSeed(engineSeed, uint64(i)))
		if gst.prev != nil {
			gst.prev[base+i] = -1
		}
	}
	gst.laneTrial[ln] = int32(trial)
	return nil
}

// stopRoundAll mirrors StopWhenAll for one lane: the max of the observers'
// satisfaction rounds, or -1 if any is unsatisfied.
func stopRoundAll(obs []GroupObserver, ln int) int64 {
	r := int64(0)
	for _, o := range obs {
		s := o.laneSatisfied(ln)
		if s < 0 {
			return -1
		}
		if s > r {
			r = s
		}
	}
	return r
}

// retireSatisfied records and compacts every lane of [loLane, hiLane)
// whose stop condition has fired, returning the new end of the live
// lanes. The caller owns the range: the chunk before its shards spawn
// (the round-0 pass), or afterwards the worker whose shard it is.
func retireSatisfied(gst *groupState, obs []GroupObserver, res *GroupedResult, loLane, hiLane int) int {
	for ln := loLane; ln < hiLane; {
		s := stopRoundAll(obs, ln)
		if s < 0 {
			ln++
			continue
		}
		trial := int(gst.laneTrial[ln])
		res.Rounds[trial] = s
		res.Stopped[trial] = true
		for _, o := range obs {
			o.finishLane(ln, trial, s, true)
		}
		hiLane--
		gst.retireLane(ln, hiLane, obs)
	}
	return hiLane
}

// censorLanes records lanes [loLane, hiLane) as having exhausted the
// budget maxRounds.
func censorLanes(gst *groupState, obs []GroupObserver, res *GroupedResult, maxRounds int64, loLane, hiLane int) {
	for ln := loLane; ln < hiLane; ln++ {
		trial := int(gst.laneTrial[ln])
		res.Rounds[trial] = maxRounds
		res.Stopped[trial] = false
		for _, o := range obs {
			o.finishLane(ln, trial, maxRounds, false)
		}
	}
}

// runGroupedChunk drives trials [c0, c0+m) to completion.
func (e *Engine) runGroupedChunk(gst *groupState, spec *GroupedRunSpec, obs []GroupObserver, res *GroupedResult, c0, m int) error {
	k := gst.laneK
	gst.k = m * k
	for ln := 0; ln < m; ln++ {
		if err := e.seedLane(gst, spec, ln, c0+ln); err != nil {
			return err
		}
		for _, o := range obs {
			o.startLane(ln, c0+ln, gst.pos[ln*k:(ln+1)*k])
		}
	}
	gst.lanes = retireSatisfied(gst, obs, res, 0, m)
	if gst.lanes == 0 {
		return nil
	}
	// If any observer can prove it will never be satisfied (a hit observer
	// with an empty marked set), no lane can ever stop: mirror the
	// sequential runHit short-circuit and censor everything without
	// stepping the budget down.
	for _, o := range obs {
		if ns, ok := o.(neverSatisfiable); ok && ns.neverSatisfied() {
			censorLanes(gst, obs, res, spec.MaxRounds, 0, gst.lanes)
			gst.lanes = 0
			return nil
		}
	}
	// The budget and worker count travel by value: handing spec itself to
	// the shard goroutines would move every caller's spec to the heap.
	e.runShards(gst, obs, e.fusedCoverObserver(k, obs), res, spec.MaxRounds, spec.Workers)
	return nil
}

// laneShardSpan returns worker w's contiguous lane range when lanes are
// split across workers (the same arithmetic runState.each uses for walker
// shards). Lane ownership — not execution order — determines every draw
// and every scan, so the partition only has to be a pure function of
// (lanes, workers, w) for results to be independent of scheduling.
func laneShardSpan(lanes, workers, w int) (lo, hi int) {
	chunk := (lanes + workers - 1) / workers
	lo = min(w*chunk, lanes)
	hi = min(lo+chunk, lanes)
	return lo, hi
}

// runShards drives the chunk's live lanes to completion. Each worker owns
// one contiguous lane shard for the lanes' whole lives and runs it to the
// end with no barrier, so a worker whose lanes finish early never waits on
// another's. Shards are spawned as direct method calls — not closures —
// so a multicore chunk costs exactly one goroutine per worker, and a
// one-worker pass runs on the calling goroutine and allocates nothing.
// (Running worker 0 on the caller instead measured slower on small fused
// passes: the last goroutine spawned waits in the caller's run-next slot,
// which an idle core steals from only after a delay.) fused selects the
// fused cover body (nil: the generic one).
func (e *Engine) runShards(gst *groupState, obs []GroupObserver, fused *GroupCoverObserver, res *GroupedResult, maxRounds int64, workers int) {
	workers = min(workers, gst.lanes)
	if workers <= 1 {
		e.runShard(gst, obs, fused, res, maxRounds, 0, 0, gst.lanes)
	} else {
		for w := 0; w < workers; w++ {
			lo, hi := laneShardSpan(gst.lanes, workers, w)
			if lo == hi {
				continue
			}
			gst.wg.Add(1)
			go e.runShardAsync(gst, obs, fused, res, maxRounds, w, lo, hi)
		}
		gst.wg.Wait()
	}
	gst.lanes = 0
}

// runShard is worker w's whole share of a chunk: it advances lanes
// [loLane, hiLane) until each has stopped or reached maxRounds, retires
// the stopped ones and censors the rest. It touches only its lane range,
// worker w's observer scratch and its own lanes' trial slots, so
// concurrent shards never share mutable state, and a lane's draws depend
// only on its own streams: results are identical however lanes are
// partitioned.
func (e *Engine) runShard(gst *groupState, obs []GroupObserver, fused *GroupCoverObserver, res *GroupedResult, maxRounds int64, w, loLane, hiLane int) {
	if fused != nil {
		e.fusedCoverShard(gst, fused, maxRounds, loLane, hiLane)
		hiLane = retireSatisfied(gst, obs, res, loLane, hiLane)
	} else {
		hiLane = e.genericShard(gst, obs, res, maxRounds, w, loLane, hiLane)
	}
	censorLanes(gst, obs, res, maxRounds, loLane, hiLane)
}

// runShardAsync is runShard plus the join, the form the multicore spawn
// uses.
func (e *Engine) runShardAsync(gst *groupState, obs []GroupObserver, fused *GroupCoverObserver, res *GroupedResult, maxRounds int64, w, loLane, hiLane int) {
	defer gst.wg.Done()
	e.runShard(gst, obs, fused, res, maxRounds, w, loLane, hiLane)
}

// genericShard is the kernel-agnostic shard body: it advances lanes
// [loLane, hiLane) round-major through the engine's stepRound in batches
// of seqBatch rounds, handing each fresh round to the observers' lane
// scans, and after each batch retires its satisfied lanes, compacting
// against its own last live lane. It returns the end of the lanes still
// live at the budget. Batches span whole draw groups, so compaction never
// splits a reservoir; batch size only moves the retirement points —
// per-trial outcomes are invariant, pinned by the BatchRounds grids in
// TestFusedMatchesSequentialTrials and TestGroupedDeterministicAcrossWorkers.
func (e *Engine) genericShard(gst *groupState, obs []GroupObserver, res *GroupedResult, maxRounds int64, w, loLane, hiLane int) int {
	k := gst.laneK
	batch := int64(e.seqBatch)
	for t0 := int64(0); loLane < hiLane && t0 < maxRounds; t0 += batch {
		b := min(batch, maxRounds-t0)
		for _, o := range obs {
			if r, ok := o.(epochRebaser); ok {
				r.rebase(w, loLane, hiLane, t0, b)
			}
		}
		for t := t0 + 1; t <= t0+b; t++ {
			e.stepRound(&gst.runState, loLane*k, hiLane*k, t)
			for _, o := range obs {
				o.scanRound(gst, loLane, hiLane, w, t)
			}
		}
		hiLane = retireSatisfied(gst, obs, res, loLane, hiLane)
	}
	return hiLane
}

// ---------------------------------------------------------------------------
// GroupCoverObserver

// groupUnset is the "never visited" sentinel of the uint32 first-visit
// lanes.
const groupUnset = ^uint32(0)

// coverEpochSpan is the widest round range a cover lane's uint32
// first-visit cells represent. Cells hold rounds relative to the lane's
// epoch base; before a lane steps past base+coverEpochSpan it rebases
// (rebaseLane), so any budget fits. 2^31-1 keeps relative rounds clear of
// the groupUnset sentinel and of the fused path's uint32 pair arithmetic.
// It is a variable only so tests can shrink it and cross epochs on short
// runs.
var coverEpochSpan = int64(1)<<31 - 1

// GroupCoverObserver tracks, per trial lane, the distinct vertices visited
// and each vertex's exact first-visit round — the grouped counterpart of
// CoverObserver for count-target workloads. Configure before the run:
//
//   - Target: stop threshold on the distinct-visit count (0 selects n,
//     full cover).
//   - RecordFirst: export every trial's first-visit rounds (the
//     coverage-profile sampler); retrieve with TrialFirstVisits. Exact
//     export needs every round in one epoch, so RecordFirst runs are
//     limited to MaxRounds <= 2^31-1.
//
// Lane state is a word of uint32 first-visit rounds per vertex — the
// packed replacement for the sequential path's per-trial byte arrays —
// updated by unsigned min, which makes the fused walker-major scan
// order-invariant: the final value per vertex is its exact first-visit
// round no matter the order walkers of the lane were advanced within a
// pass.
type GroupCoverObserver struct {
	Target      int
	RecordFirst bool

	n, k    int
	target  int
	first   []uint32 // slot lanes after the dummy region (see laneCells)
	laneOff []int32  // lane -> slot (swapped on compaction)
	counts  []int32  // per slot: distinct vertices visited
	done    []int64  // per slot: satisfaction round, -1 while running
	base    []int64  // per slot: epoch base the first-visit cells are relative to
	// epoch is the generic path's per-worker base: a shard's lanes start
	// together and step in lockstep, so every live lane of worker w's
	// shard has base epoch[w], and the per-round scan subtracts it once
	// instead of per lane. Shards advance independently, so the bases
	// differ between workers.
	epoch []workerWord

	outCount []int32   // per trial
	outFirst [][]int64 // per trial, when RecordFirst
}

// NewGroupCoverObserver returns a full-cover grouped observer (the
// k-walk cover-time estimator workload). target 0 selects full cover.
func NewGroupCoverObserver(target int) *GroupCoverObserver {
	return &GroupCoverObserver{Target: target}
}

// perLaneCells reports the uint32 first-visit cells each lane allocates.
func (o *GroupCoverObserver) perLaneCells(n int) int { return n }

func (o *GroupCoverObserver) validateGroup(n, k, trials int, maxRounds int64) error {
	if o.Target < 0 || o.Target > n {
		return fmt.Errorf("walk: cover target %d out of range [1,%d]", o.Target, n)
	}
	if o.RecordFirst && maxRounds > coverEpochSpan {
		return fmt.Errorf("walk: first-visit export supports budgets up to %d rounds, got %d", coverEpochSpan, maxRounds)
	}
	return nil
}

func (o *GroupCoverObserver) bindGroup(e *Engine, trials, lanes, k, workers int) {
	n := e.g.N()
	o.n, o.k = n, k
	o.target = o.Target
	if o.target == 0 {
		o.target = n
	}
	o.first = growSlice(o.first, lanes*n)
	if cap(o.laneOff) < lanes {
		o.laneOff = make([]int32, lanes)
		o.counts = make([]int32, lanes)
		o.done = make([]int64, lanes)
		o.base = make([]int64, lanes)
	}
	o.laneOff, o.counts, o.done, o.base = o.laneOff[:lanes], o.counts[:lanes], o.done[:lanes], o.base[:lanes]
	for i := range o.laneOff {
		o.laneOff[i] = int32(i)
	}
	o.epoch = growSlice(o.epoch, workers)
	// Per-trial outputs reuse capacity across binds: finishLane overwrites
	// every trial's slot exactly once per run, so no clearing is needed and
	// a rebinding observer (the serving layer's pooled arenas) allocates
	// nothing in steady state.
	o.outCount = growSlice(o.outCount, trials)
	if o.RecordFirst {
		o.outFirst = growSlice(o.outFirst, trials)
	} else {
		o.outFirst = nil
	}
}

// laneCells returns slot s's first-visit cell window.
func (o *GroupCoverObserver) laneCells(s int32) []uint32 {
	off := int(s) * o.n
	return o.first[off : off+o.n]
}

func (o *GroupCoverObserver) startLane(ln, trial int, starts []int32) {
	s := o.laneOff[ln]
	lane := o.laneCells(s)
	for i := range lane {
		lane[i] = groupUnset
	}
	count := int32(0)
	for _, v := range starts {
		if lane[v] == groupUnset {
			lane[v] = 0
			count++
		}
	}
	o.counts[s] = count
	o.done[s] = -1
	o.base[s] = 0
	if int(count) >= o.target {
		o.done[s] = 0
	}
}

// rebaseLane moves slot s's epoch base forward to round t, which must be
// no earlier than every round its cells hold. Visited cells all fall at
// or before t, so they saturate to relative round 0 — still "visited",
// and still no later than any round the lane can stop at — and unvisited
// cells keep the sentinel. Only exact first-visit export needs the rounds
// lost here, which is why RecordFirst never runs past one epoch.
func (o *GroupCoverObserver) rebaseLane(s int32, t int64) {
	lane := o.laneCells(s)
	for i, f := range lane {
		if f != groupUnset {
			lane[i] = 0
		}
	}
	o.base[s] = t
}

// rebase is the generic path's epoch hook, called by worker w before its
// shard's live lanes [loLane, hiLane) step rounds (t0, t0+b]: a chunk's
// lanes all start at base 0, and if the batch would leave the shard's
// epoch, every live lane of the shard rebases to t0.
func (o *GroupCoverObserver) rebase(w, loLane, hiLane int, t0, b int64) {
	if t0 == 0 {
		o.epoch[w].v = 0
	}
	if t0+b-o.epoch[w].v <= coverEpochSpan {
		return
	}
	for ln := loLane; ln < hiLane; ln++ {
		o.rebaseLane(o.laneOff[ln], t0)
	}
	o.epoch[w].v = t0
}

// scanRound is the generic-path lane scan: exact first-visit recording in
// round order. The fused path of groupedfused.go writes the same lanes
// through its inline min-update scan instead.
func (o *GroupCoverObserver) scanRound(gs *groupState, loLane, hiLane, w int, t int64) {
	k := gs.laneK
	tt := uint32(t - o.epoch[w].v)
	for ln := loLane; ln < hiLane; ln++ {
		s := o.laneOff[ln]
		if o.done[s] >= 0 {
			continue
		}
		lane := o.laneCells(s)
		count := o.counts[s]
		for _, p := range gs.pos[ln*k : (ln+1)*k] {
			if lane[p] == groupUnset {
				lane[p] = tt
				count++
			}
		}
		o.counts[s] = count
		if int(count) >= o.target {
			o.done[s] = o.epoch[w].v + int64(tt) // == t; keeps t out of the loop's registers
		}
	}
}

func (o *GroupCoverObserver) laneSatisfied(ln int) int64 { return o.done[o.laneOff[ln]] }

func (o *GroupCoverObserver) finishLane(ln, trial int, rounds int64, stopped bool) {
	s := o.laneOff[ln]
	// The fused path's pair passes may overshoot the resolved stop round
	// by one round before the crossing is detected, so the exported count
	// and first-visit rounds are recomputed at the exact stop round — the
	// state a sequential run reports.
	count := int32(0)
	lane := o.laneCells(s)
	base := o.base[s]
	var out []int64
	if o.RecordFirst {
		out = make([]int64, o.n)
	}
	for v, f := range lane {
		visited := f != groupUnset && base+int64(f) <= rounds
		if visited {
			count++
		}
		if out != nil {
			if visited {
				out[v] = base + int64(f)
			} else {
				out[v] = -1
			}
		}
	}
	o.outCount[trial] = count
	if o.RecordFirst {
		o.outFirst[trial] = out
	}
}

func (o *GroupCoverObserver) moveLane(dst, src int) {
	o.laneOff[dst], o.laneOff[src] = o.laneOff[src], o.laneOff[dst]
}

// TrialCount returns the distinct-visit count trial ended with.
func (o *GroupCoverObserver) TrialCount(trial int) int { return int(o.outCount[trial]) }

// TrialFirstVisits returns trial's per-vertex first-visit rounds (-1 if
// unvisited); it requires RecordFirst.
func (o *GroupCoverObserver) TrialFirstVisits(trial int) []int64 { return o.outFirst[trial] }

// ---------------------------------------------------------------------------
// GroupHitObserver

// GroupHitObserver watches every trial lane for a walker standing on a
// marked vertex — the grouped counterpart of HitObserver. The marked set
// is shared by all trials (compiled to a bitset once); per-lane state is
// the hit round, vertex, and walker. Ties within a round resolve to the
// lowest walker index, matching the sequential observer.
type GroupHitObserver struct {
	Marked []bool

	bitset []uint64
	none   bool
	k      int
	done   []int64 // per lane (lanes never move content; slot == lane via laneOff)
	vtx    []int32
	wkr    []int32
	lnOff  []int32

	outHit    []bool
	outVertex []int32
	outWalker []int32
}

// NewGroupHitObserver returns a grouped hit observer for the marked set.
func NewGroupHitObserver(marked []bool) *GroupHitObserver {
	return &GroupHitObserver{Marked: marked}
}

func (o *GroupHitObserver) validateGroup(n, k, trials int, _ int64) error {
	if len(o.Marked) != n {
		return fmt.Errorf("walk: marked length %d != n %d", len(o.Marked), n)
	}
	return nil
}

func (o *GroupHitObserver) bindGroup(e *Engine, trials, lanes, k, workers int) {
	o.k = k
	o.bitset, o.none = compileMarkedBitset(o.Marked, o.bitset)
	if cap(o.done) < lanes {
		o.done = make([]int64, lanes)
		o.vtx = make([]int32, lanes)
		o.wkr = make([]int32, lanes)
		o.lnOff = make([]int32, lanes)
	}
	o.done, o.vtx, o.wkr, o.lnOff = o.done[:lanes], o.vtx[:lanes], o.wkr[:lanes], o.lnOff[:lanes]
	for i := range o.lnOff {
		o.lnOff[i] = int32(i)
	}
	o.outHit = growSlice(o.outHit, trials)
	o.outVertex = growSlice(o.outVertex, trials)
	o.outWalker = growSlice(o.outWalker, trials)
}

func (o *GroupHitObserver) startLane(ln, trial int, starts []int32) {
	s := o.lnOff[ln]
	o.done[s], o.vtx[s], o.wkr[s] = -1, -1, -1
	for i, v := range starts {
		if o.Marked[v] {
			o.done[s], o.vtx[s], o.wkr[s] = 0, v, int32(i)
			break
		}
	}
}

func (o *GroupHitObserver) scanRound(gs *groupState, loLane, hiLane, _ int, t int64) {
	if o.none {
		return
	}
	k := gs.laneK
	for ln := loLane; ln < hiLane; ln++ {
		s := o.lnOff[ln]
		if o.done[s] >= 0 {
			continue
		}
		if ii := scanMarked(gs.pos[ln*k:(ln+1)*k], o.bitset); ii >= 0 {
			o.done[s], o.vtx[s], o.wkr[s] = t, gs.pos[ln*k+ii], int32(ii)
		}
	}
}

func (o *GroupHitObserver) laneSatisfied(ln int) int64 { return o.done[o.lnOff[ln]] }

// neverSatisfied reports an all-false marked set: no walker can ever hit.
func (o *GroupHitObserver) neverSatisfied() bool { return o.none }

func (o *GroupHitObserver) finishLane(ln, trial int, rounds int64, stopped bool) {
	s := o.lnOff[ln]
	o.outHit[trial] = stopped
	o.outVertex[trial] = o.vtx[s]
	o.outWalker[trial] = o.wkr[s]
}

func (o *GroupHitObserver) moveLane(dst, src int) {
	o.lnOff[dst], o.lnOff[src] = o.lnOff[src], o.lnOff[dst]
}

// TrialResult converts trial's outcome into a HitResult, with rounds the
// recorded stop round of the trial.
func (o *GroupHitObserver) TrialResult(trial int, rounds int64) HitResult {
	if !o.outHit[trial] {
		return HitResult{Rounds: rounds, Vertex: -1, Walker: -1}
	}
	return HitResult{Rounds: rounds, Vertex: o.outVertex[trial], Walker: int(o.outWalker[trial]), Hit: true}
}

// ---------------------------------------------------------------------------
// GroupCollisionObserver

// GroupCollisionObserver detects same-vertex collisions inside each trial
// lane — the grouped counterpart of CollisionObserver for the meeting and
// coalescence estimators. Collision detection shares the singleton's
// stamping scheme, but the per-vertex stamp arrays are *worker scratch*
// stamped with a monotone token per (lane, round) scan instead of
// per-lane copies, so memory stays O(workers × n) rather than
// O(lanes × n); the union-find forest, first-meeting bookkeeping, and
// class counts are per lane, in the same walker order as the sequential
// merge, so outcomes are bit-for-bit identical.
type GroupCollisionObserver struct {
	// Coalesce selects coalescence mode; otherwise the observer is
	// satisfied at the first meeting.
	Coalesce bool

	k      int
	parent []int32 // slot-indexed: slot s owns parent[s*k:(s+1)*k]
	lnOff  []int32
	groups []int32
	meetR  []int64
	meetA  []int32
	meetB  []int32
	meetV  []int32
	coalR  []int64
	done   []int64

	stamp  [][]int64    // per worker: vertex -> token of last occupancy
	stampW [][]int32    // per worker: first walker on the vertex that token
	token  []workerWord // per worker: monotone scan counter

	outMeet   []int64
	outCoal   []int64
	outGroups []int32
}

// NewGroupCollisionObserver returns a grouped meeting observer; coalesce
// selects full-coalescence mode (which also records first meetings).
func NewGroupCollisionObserver(coalesce bool) *GroupCollisionObserver {
	return &GroupCollisionObserver{Coalesce: coalesce}
}

func (o *GroupCollisionObserver) validateGroup(n, k, trials int, _ int64) error {
	if k < 2 {
		return fmt.Errorf("walk: collision observer requires at least 2 walkers, got %d", k)
	}
	return nil
}

func (o *GroupCollisionObserver) bindGroup(e *Engine, trials, lanes, k, workers int) {
	n := e.g.N()
	o.k = k
	o.parent = growSlice(o.parent, lanes*k)
	if cap(o.lnOff) < lanes {
		o.lnOff = make([]int32, lanes)
		o.groups = make([]int32, lanes)
		o.meetR = make([]int64, lanes)
		o.meetA = make([]int32, lanes)
		o.meetB = make([]int32, lanes)
		o.meetV = make([]int32, lanes)
		o.coalR = make([]int64, lanes)
		o.done = make([]int64, lanes)
	}
	o.lnOff, o.groups, o.done = o.lnOff[:lanes], o.groups[:lanes], o.done[:lanes]
	o.meetR, o.meetA, o.meetB, o.meetV, o.coalR = o.meetR[:lanes], o.meetA[:lanes], o.meetB[:lanes], o.meetV[:lanes], o.coalR[:lanes]
	for i := range o.lnOff {
		o.lnOff[i] = int32(i)
	}
	if cap(o.stamp) < workers {
		o.stamp = make([][]int64, workers)
		o.stampW = make([][]int32, workers)
		o.token = make([]workerWord, workers)
	}
	o.stamp, o.stampW, o.token = o.stamp[:workers], o.stampW[:workers], o.token[:workers]
	for w := range o.stamp {
		if cap(o.stamp[w]) < n {
			o.stamp[w] = make([]int64, n)
			o.stampW[w] = make([]int32, n)
		}
		o.stamp[w] = o.stamp[w][:n]
		o.stampW[w] = o.stampW[w][:n]
		for i := range o.stamp[w] {
			o.stamp[w][i] = -1
		}
		o.token[w].v = 0
	}
	o.outMeet = growSlice(o.outMeet, trials)
	o.outCoal = growSlice(o.outCoal, trials)
	o.outGroups = growSlice(o.outGroups, trials)
}

func (o *GroupCollisionObserver) startLane(ln, trial int, starts []int32) {
	s := int(o.lnOff[ln])
	parent := o.parent[s*o.k : (s+1)*o.k]
	for i := range parent {
		parent[i] = int32(i)
	}
	o.groups[s] = int32(o.k)
	o.meetR[s], o.meetA[s], o.meetB[s], o.meetV[s] = -1, -1, -1, -1
	o.coalR[s] = -1
	o.done[s] = -1
	// Round-0 collisions via the worker-0 scratch (startLane runs
	// single-threaded before the pass begins).
	o.scanLanePositions(0, s, starts, 0)
}

// scanLanePositions folds one round of one lane into its collision state,
// in walker order (the singleton's merge order).
func (o *GroupCollisionObserver) scanLanePositions(w, s int, pos []int32, t int64) {
	stamp, stampW := o.stamp[w], o.stampW[w]
	o.token[w].v++
	tok := o.token[w].v
	parent := o.parent[s*o.k : (s+1)*o.k]
	for i, v := range pos {
		if stamp[v] != tok {
			stamp[v] = tok
			stampW[v] = int32(i)
			continue
		}
		j := stampW[v]
		if o.meetR[s] < 0 {
			o.meetR[s], o.meetA[s], o.meetB[s], o.meetV[s] = t, j, int32(i), v
			if !o.Coalesce && o.done[s] < 0 {
				o.done[s] = t
			}
		}
		if ra, rb := ufFind(parent, j), ufFind(parent, int32(i)); ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
			o.groups[s]--
			if o.groups[s] == 1 && o.coalR[s] < 0 {
				o.coalR[s] = t
				if o.Coalesce && o.done[s] < 0 {
					o.done[s] = t
				}
			}
		}
	}
}

func (o *GroupCollisionObserver) scanRound(gs *groupState, loLane, hiLane, w int, t int64) {
	k := gs.laneK
	for ln := loLane; ln < hiLane; ln++ {
		s := int(o.lnOff[ln])
		if o.done[s] >= 0 {
			continue
		}
		o.scanLanePositions(w, s, gs.pos[ln*k:(ln+1)*k], t)
	}
}

func (o *GroupCollisionObserver) laneSatisfied(ln int) int64 { return o.done[o.lnOff[ln]] }

func (o *GroupCollisionObserver) finishLane(ln, trial int, rounds int64, stopped bool) {
	s := o.lnOff[ln]
	o.outMeet[trial] = o.meetR[s]
	o.outCoal[trial] = o.coalR[s]
	o.outGroups[trial] = o.groups[s]
}

func (o *GroupCollisionObserver) moveLane(dst, src int) {
	o.lnOff[dst], o.lnOff[src] = o.lnOff[src], o.lnOff[dst]
}

// TrialMeetRound returns trial's first meeting round, or -1.
func (o *GroupCollisionObserver) TrialMeetRound(trial int) int64 { return o.outMeet[trial] }

// TrialCoalescenceRound returns the round trial's classes collapsed to
// one, or -1.
func (o *GroupCollisionObserver) TrialCoalescenceRound(trial int) int64 { return o.outCoal[trial] }

// TrialGroups returns trial's remaining meeting-equivalence classes.
func (o *GroupCollisionObserver) TrialGroups(trial int) int { return int(o.outGroups[trial]) }

// ufFind is the path-halving union-find lookup shared by the sequential
// CollisionObserver and the grouped lanes.
func ufFind(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}
