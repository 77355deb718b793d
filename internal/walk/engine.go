package walk

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"

	"manywalks/internal/graph"
	"manywalks/internal/rng"
)

// This file implements the batched k-walk engine, the hot path behind every
// cover-time, partial-cover, and hit-time estimate in the repository.
//
// A per-walker simulator would advance each walker through a Step method,
// paying a slice-header construction and a non-inlinable shared-RNG call
// per step. The engine instead keeps all walker state in flat arrays —
// positions in a []int32, one xoshiro256++ stream per walker in a
// []rng.Source — and advances the whole walker array in *batches* of
// rounds between synchronization barriers:
//
//  1. Step: each worker owns a contiguous shard of walkers and advances it
//     strictly round-major (all walkers step round t before any steps
//     t+1), which keeps the per-walker load chains independent so the CPU
//     overlaps their cache misses. Each walker stretches one 64-bit
//     xoshiro draw across a *group* of rounds through a per-walker bit
//     reservoir (see the draw discipline below), so the generator state is
//     loaded and stored once per group instead of once per step. Each
//     worker marks a private visited set and appends (round, vertex) to a
//     private log — naturally sorted by round — whenever it sees a vertex
//     for the first time.
//  2. Merge: at the batch barrier one pass sweeps the worker logs in round
//     order, folding them into the shared visited set and detecting the
//     exact round at which the stop condition fired, even mid-batch.
//
// Draw discipline (pinned by TestEngineMatchesWalkerReplay against an
// independent reimplementation): walker i consumes the stream
// rng.NewStream(seed, i). Rounds are processed in groups of g, aligned to
// absolute round numbers (rounds (m*g, (m+1)*g] form group m). With a
// padded table of stride 2^s, a step needs s random bits and g = 64/s:
// at the first round of a group the walker draws one Uint64, steps by its
// low s bits, and banks the remaining 64-s bits in a reservoir; each later
// round of the group shifts the next s bits out of the reservoir. Without
// a padded table g = 2 and the lanes are the draw's low and high 32 bits,
// reduced to [0,deg) by Lemire multiply-shift. A rejected lane — a padding
// sentinel, or Lemire's low region (probability deg/2^32) — draws a fresh
// Uint64 and retries with its low lane, leaving the reservoir intact.
// Batches always span whole groups, so results are bit-for-bit identical
// for a fixed (graph, starts, seed, budget) regardless of Workers and
// BatchRounds. Walkers overshooting the stop round inside a batch are
// simply discarded with the rest of the batch.

// EngineOptions tunes the batched k-walk engine. Except for Kernel, the
// zero value selects sensible defaults and no option affects results, only
// performance. Kernel selects the step law (and so the simulated process);
// its zero value is the paper's uniform walk.
type EngineOptions struct {
	// Workers caps the goroutines stepping walker shards (Run) or trial
	// lane shards (RunGrouped) concurrently. 0 or negative selects
	// runtime.GOMAXPROCS(0), the same default as MCOptions.Workers, so a
	// process limited to fewer Ps than cores never oversubscribes them. A
	// Run never uses more than one worker per minShardWalkers walkers, so
	// small k stays sequential.
	Workers int
	// BatchRounds is the number of rounds advanced between merge barriers,
	// rounded up to a whole number of draw groups (the rounds one 64-bit
	// draw funds — 2 in CSR mode, 64/s for a padded table of stride 2^s,
	// so up to 64; non-uniform kernels draw fresh every round, so their
	// group is 1). 0 or negative selects the default: 64 for sharded
	// runs, 16 for single-worker runs, whose merges are cheap and whose
	// overshoot past the stop round is pure waste. Larger batches
	// amortize the barrier but overshoot further; results are unaffected
	// either way. RunGrouped's generic lane shards have no barrier and
	// always use the single-worker batch, which sets how often a shard
	// retires its stopped lanes.
	BatchRounds int
	// Kernel is the step law the engine compiles (see kernel.go). The
	// zero value is Uniform(). Every kernel keeps the engine's
	// determinism guarantee: for a fixed (graph, kernel, starts, seed,
	// budget), results are bit-for-bit identical regardless of Workers
	// and BatchRounds.
	Kernel Kernel
}

const (
	defaultBatchRounds    = 64
	defaultSeqBatchRounds = 16
	// minShardWalkers is the smallest shard worth a goroutine; below this
	// the barrier overhead dominates the stepping work.
	minShardWalkers = 16
)

// Engine is a batched simulator for the paper's synchronized k-walk on one
// fixed graph. It is immutable after construction and safe for concurrent
// use: every run allocates (or borrows from an internal pool) its own
// walker state.
type Engine struct {
	// Hot step-path fields stay at the top of the struct so the per-round
	// dispatch and table lookups share cache lines.
	adj []int32
	// vtx packs vertex v's CSR range as offset<<32 | degree, halving the
	// per-step metadata loads relative to two offsets lookups.
	vtx []uint64
	// pad, when non-nil, holds every vertex's neighbors replicated into a
	// power-of-two stride (1 << padShift slots per vertex): slot s of
	// vertex v is its (s mod deg)-th neighbor for s < deg*(stride/deg),
	// and the padSentinel for the remaining slots. Sampling a slot with
	// one masked lookup replaces the offsets-then-adjacency load chain
	// with a single dependent load; sentinel slots redraw, keeping the
	// choice exactly uniform. Built only when the table stays small
	// enough to be worth it (maxPadEntries).
	pad      []int32
	padShift uint32
	group    int           // rounds funded by one 64-bit draw; batches span whole groups
	prog     kernelProgram // compiled step law: alias tables, lazy threshold, prev-lane flag
	workers  int
	batch    int // rounds per barrier for sharded (multi-worker) Run calls
	seqBatch int // rounds per merge for single-worker Run calls, and per retirement scan of a grouped lane shard
	g        *graph.Graph
	kernel   Kernel
	pool     sync.Pool // *runState, reused across runs to cut allocation churn
	gpool    sync.Pool // *groupState, reused across grouped (trial-fused) runs
	pair     pairTable // lazily built two-step table for the fused grouped path
}

const (
	padSentinel   = int32(-1)
	maxPadEntries = 1 << 21 // 8 MiB of padded table at 4 bytes per slot
)

// NewEngine returns an engine for g. It panics if any vertex is isolated
// (a walker there would have no move) or if opts.Kernel is invalid,
// rejecting impossible configurations up front.
func NewEngine(g *graph.Graph, opts EngineOptions) *Engine {
	offsets, adj := g.CSR()
	n := g.N()
	vtx := make([]uint64, n)
	for v := 0; v < n; v++ {
		off, deg := offsets[v], offsets[v+1]-offsets[v]
		if deg == 0 {
			panic(fmt.Sprintf("walk: engine requires min degree 1, vertex %d is isolated", v))
		}
		vtx[v] = uint64(uint32(off))<<32 | uint64(uint32(deg))
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := opts.BatchRounds
	seqBatch := batch
	if batch <= 0 {
		// Unset: big batches amortize the multi-worker barrier, while a
		// single-worker run merges cheaply and only wastes its overshoot
		// past the stop round, so it prefers short batches.
		batch, seqBatch = defaultBatchRounds, defaultSeqBatchRounds
	}
	kernel := KernelOrUniform(opts.Kernel)
	prog, err := compileKernel(g, kernel)
	if err != nil {
		panic(err.Error())
	}
	e := &Engine{g: g, adj: adj, vtx: vtx, workers: workers, kernel: kernel, prog: prog}
	// Non-uniform kernels draw fresh entropy every round (group 1), so
	// only Uniform banks reservoir bits, and only Uniform and Lazy sample
	// through the padded table.
	e.group = 1
	if wantsPadTable(prog.kind) {
		if prog.kind == progUniform {
			e.group = 2
		}
		_, maxDeg := g.DegreeStats()
		shift := uint32(bits.Len(uint(maxDeg - 1)))
		if shift == 0 {
			shift = 1 // a stride-1 table still banks one (unused) bit per round
		}
		if stride := 1 << shift; n<<shift <= maxPadEntries {
			pad := make([]int32, n<<shift)
			for v := 0; v < n; v++ {
				nb := adj[offsets[v]:offsets[v+1]]
				deg := len(nb)
				filled := (stride / deg) * deg
				row := pad[v<<shift : (v+1)<<shift]
				for s := 0; s < filled; s++ {
					row[s] = nb[s%deg]
				}
				for s := filled; s < stride; s++ {
					row[s] = padSentinel
				}
			}
			e.pad, e.padShift = pad, shift
			if prog.kind == progUniform {
				e.group = 64 / int(shift)
			}
		}
	}
	// Batches must span whole groups so the reservoir never crosses a
	// barrier.
	roundUp := func(b int) int { return (b + e.group - 1) / e.group * e.group }
	e.batch, e.seqBatch = roundUp(batch), roundUp(seqBatch)
	return e
}

// wantsPadTable reports whether a compiled kernel samples uniform neighbors
// through the padded table; the alias-table and prev-lane programs never
// touch it.
func wantsPadTable(k progKind) bool {
	return k == progUniform || k == progLazy
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Kernel returns the step law the engine was compiled for.
func (e *Engine) Kernel() Kernel { return e.kernel }

// HitResult reports a marked-vertex search (KHit).
type HitResult struct {
	Rounds int64 // rounds to the first hit, or the budget if !Hit
	Vertex int32 // the marked vertex hit, -1 if none
	Walker int   // index of the hitting walker, -1 if none
	Hit    bool
}

// xoshiroNext is the xoshiro256++ transition, kept as a tiny pure function
// so the kernels inline it with the state in registers. It must match
// rng.Source.Uint64 bit for bit.
func xoshiroNext(s0, s1, s2, s3 uint64) (x, r0, r1, r2, r3 uint64) {
	x = bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = bits.RotateLeft64(s3, 45)
	return x, s0, s1, s2, s3
}

// reduce32 maps a 32-bit lane to [0,deg) by Lemire multiply-shift; ok is
// false when the lane falls in the rejected low region and must be
// redrawn, which keeps the reduction exactly uniform.
func reduce32(lane, deg uint32) (idx uint32, ok bool) {
	m := uint64(lane) * uint64(deg)
	if uint32(m) < deg && uint32(m) < -deg%deg {
		return 0, false
	}
	return uint32(m >> 32), true
}

// visitEntry records a worker-locally new vertex and the round it was
// reached.
type visitEntry struct {
	t int64
	v int32
}

// worker is one shard's private visited state; log holds its first visits
// in round order and cur is the merge sweep's cursor into it.
type worker struct {
	lo, hi int
	seen   []uint64 // view: the private buf, or the run's merged set when sharing
	buf    []uint64
	log    []visitEntry
	cur    int
}

// seenWords is the length of a word-packed visited bitset over n vertices.
func seenWords(n int) int { return (n + 63) / 64 }

// testAndSet marks vertex v in the word-packed set and reports whether it
// was already marked.
func testAndSet(seen []uint64, v int32) bool {
	w := seen[uint32(v)>>6]
	bit := uint64(1) << (uint(v) & 63)
	seen[uint32(v)>>6] = w | bit
	return w&bit != 0
}

// compileMarkedBitset packs a marked-vertex set into a word bitset (reusing
// buf's capacity) and reports whether the set is empty — the shared
// marked-set compile of the sequential and grouped hit observers.
func compileMarkedBitset(marked []bool, buf []uint64) (bitset []uint64, none bool) {
	words := seenWords(len(marked))
	if cap(buf) < words {
		buf = make([]uint64, words)
	}
	bitset = buf[:words]
	clear(bitset)
	none = true
	for v, m := range marked {
		if m {
			bitset[v>>6] |= 1 << uint(v&63)
			none = false
		}
	}
	return bitset, none
}

// runState is the per-run mutable state; pooled because Monte Carlo
// estimators start thousands of short runs on one engine.
type runState struct {
	k       int
	batch   int
	pos     []int32      // current vertex per walker
	prev    []int32      // previous vertex per walker (-1 first), for prev-lane kernels
	streams []rng.Source // one independent stream per walker
	res     []uint64     // per-walker bit reservoir banking the rest of a group's draw
	seen    []uint64     // merged (global) visited set for the cover observer,
	// word-packed (1 bit per vertex): clears between pooled runs touch n/8
	// bytes instead of n, and a whole shard copy in preBatch is a short
	// word-sized memmove
	probe []uint8 // lone-worker byte probe (see logNewVisitsBytes)
	ws    []worker
}

// newRun borrows or allocates run state for k walkers placed at starts,
// with walker i driven by the independent stream (seed, i). workers is the
// shard count the run will use; needSeen provisions the pooled visited-set
// storage a CoverObserver borrows. Starts must already be validated.
func (e *Engine) newRun(starts []int32, seed uint64, workers int, needSeen bool) *runState {
	k := len(starts)
	n := e.g.N()
	st, _ := e.pool.Get().(*runState)
	if st == nil {
		st = &runState{}
	}
	st.k = k
	st.batch = e.batch
	if workers == 1 {
		st.batch = e.seqBatch
	}
	if cap(st.pos) < k {
		st.pos = make([]int32, k)
		st.streams = make([]rng.Source, k)
		st.res = make([]uint64, k)
	}
	st.pos, st.streams, st.res = st.pos[:k], st.streams[:k], st.res[:k]
	if e.prog.needPrev {
		if cap(st.prev) < k {
			st.prev = make([]int32, k)
		}
		st.prev = st.prev[:k]
		for i := range st.prev {
			st.prev[i] = -1
		}
	}
	if needSeen {
		words := seenWords(n)
		if cap(st.seen) < words {
			st.seen = make([]uint64, words)
		}
		st.seen = st.seen[:words]
		clear(st.seen)
		if workers == 1 {
			if cap(st.probe) < n {
				st.probe = make([]uint8, n)
			}
			st.probe = st.probe[:n]
			clear(st.probe)
		}
	}
	for i, s := range starts {
		st.pos[i] = s
		st.streams[i].Reseed(rng.StreamSeed(seed, uint64(i)))
	}
	if cap(st.ws) < workers {
		st.ws = make([]worker, workers)
	}
	st.ws = st.ws[:workers]
	chunk := (k + workers - 1) / workers
	for w := range st.ws {
		ws := &st.ws[w]
		ws.lo = min(w*chunk, k)
		ws.hi = min(ws.lo+chunk, k)
		if needSeen {
			if workers == 1 {
				// A lone worker shares the merged set directly: no per-batch
				// copy, and every logged entry is globally new by construction.
				ws.seen = st.seen
			} else {
				words := seenWords(n)
				if cap(ws.buf) < words {
					ws.buf = make([]uint64, words)
				}
				ws.buf = ws.buf[:words]
				ws.seen = ws.buf
			}
			if ws.log == nil {
				ws.log = make([]visitEntry, 0, 128)
			}
		}
	}
	return st
}

// workersFor picks the shard count for k walkers.
func (e *Engine) workersFor(k int) int {
	w := e.workers
	if limit := k / minShardWalkers; w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

// The step kernels below advance one round for walkers [lo,hi), writing
// only pos/streams/res — after a round-major step pass, pos[lo:hi] IS the
// round's frontier, and the cover/hit bookkeeping runs as a separate tight
// scan over it. Keeping the loops this small is deliberate: a fused loop
// holds too many values live and the compiler spills them to the stack on
// every step. The reservoir draw discipline implemented here is pinned by
// TestEngineMatchesWalkerReplay.

// stepRoundDrawPad: the first round of a group draws one Uint64, steps by
// its low lane, and banks the remaining bits in the reservoir. Sentinel
// slots redraw with a fresh Uint64's low lane, reservoir intact.
func (e *Engine) stepRoundDrawPad(st *runState, lo, hi int) {
	pad, shift := e.pad, e.padShift
	mask := uint64(1)<<shift - 1
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	res := st.res[lo:hi]
	for ii := range pos {
		s0, s1, s2, s3 := streams[ii].State()
		p := pos[ii]
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		res[ii] = x >> shift
		np := pad[uint64(uint32(p))<<shift|x&mask]
		for np == padSentinel {
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			np = pad[uint64(uint32(p))<<shift|x&mask]
		}
		pos[ii] = np
		streams[ii].SetState(s0, s1, s2, s3)
	}
}

// stepRoundConsumePad: later rounds of a group shift the next lane out of
// the reservoir, touching no RNG state at all unless a sentinel forces a
// redraw.
func (e *Engine) stepRoundConsumePad(st *runState, lo, hi int) {
	pad, shift := e.pad, e.padShift
	mask := uint64(1)<<shift - 1
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	res := st.res[lo:hi]
	for ii := range pos {
		p := pos[ii]
		r := res[ii]
		res[ii] = r >> shift
		np := pad[uint64(uint32(p))<<shift|r&mask]
		for np == padSentinel {
			var x uint64
			s0, s1, s2, s3 := streams[ii].State()
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			streams[ii].SetState(s0, s1, s2, s3)
			np = pad[uint64(uint32(p))<<shift|x&mask]
		}
		pos[ii] = np
	}
}

// stepRoundDrawCSR / stepRoundConsumeCSR are the general-graph variants
// (g = 2): the draw's low and high 32 bits are Lemire-reduced against the
// packed (offset,degree) CSR metadata.
func (e *Engine) stepRoundDrawCSR(st *runState, lo, hi int) {
	vtx, adj := e.vtx, e.adj
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	res := st.res[lo:hi]
	for ii := range pos {
		s0, s1, s2, s3 := streams[ii].State()
		p := pos[ii]
		var x uint64
		x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
		res[ii] = x >> 32
		meta := vtx[p]
		idx, ok := reduce32(uint32(x), uint32(meta))
		for !ok {
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			idx, ok = reduce32(uint32(x), uint32(meta))
		}
		pos[ii] = adj[uint32(meta>>32)+idx]
		streams[ii].SetState(s0, s1, s2, s3)
	}
}

func (e *Engine) stepRoundConsumeCSR(st *runState, lo, hi int) {
	vtx, adj := e.vtx, e.adj
	pos := st.pos[lo:hi]
	streams := st.streams[lo:hi]
	res := st.res[lo:hi]
	for ii := range pos {
		p := pos[ii]
		meta := vtx[p]
		idx, ok := reduce32(uint32(res[ii]), uint32(meta))
		for !ok {
			var x uint64
			s0, s1, s2, s3 := streams[ii].State()
			x, s0, s1, s2, s3 = xoshiroNext(s0, s1, s2, s3)
			streams[ii].SetState(s0, s1, s2, s3)
			idx, ok = reduce32(uint32(x), uint32(meta))
		}
		pos[ii] = adj[uint32(meta>>32)+idx]
	}
}

// stepRound dispatches one round's step pass. The Uniform kernel keeps the
// original reservoir discipline: rounds (m*g, (m+1)*g] form group m and the
// group's first round draws. Non-uniform kernels dispatch to their compiled
// step function (kernelstep.go); the switch costs one predictable branch
// per round per shard, which is noise next to the per-walker stepping work.
func (e *Engine) stepRound(st *runState, lo, hi int, t int64) {
	switch e.prog.kind {
	case progLazy:
		if e.pad != nil {
			e.stepRoundLazyPad(st, lo, hi)
		} else {
			e.stepRoundLazyCSR(st, lo, hi)
		}
		return
	case progAlias:
		e.stepRoundAlias(st, lo, hi)
		return
	case progNoBacktrack:
		e.stepRoundNoBacktrack(st, lo, hi)
		return
	}
	draw := (t-1)%int64(e.group) == 0
	if e.pad != nil {
		if draw {
			e.stepRoundDrawPad(st, lo, hi)
		} else {
			e.stepRoundConsumePad(st, lo, hi)
		}
		return
	}
	if draw {
		e.stepRoundDrawCSR(st, lo, hi)
	} else {
		e.stepRoundConsumeCSR(st, lo, hi)
	}
}

// logNewVisits folds one round's frontier into a shard's word-packed seen
// set, logging first visits; it is the sharded cover observer's scan
// kernel.
func logNewVisits(pos []int32, seen []uint64, log []visitEntry, t int64) []visitEntry {
	log = slices.Grow(log, len(pos))
	buf := log[:cap(log)]
	c := len(log)
	for _, p := range pos {
		w := seen[uint32(p)>>6]
		bit := uint64(1) << (uint(p) & 63)
		buf[c] = visitEntry{t: t, v: p}
		c += int(w>>(uint(p)&63))&1 ^ 1
		seen[uint32(p)>>6] = w | bit
	}
	return buf[:c]
}

// logNewVisitsBytes is the lone-worker variant of logNewVisits probing a
// byte array. The loop is branchless — the entry is written unconditionally
// and the cursor advances by the complement of the seen byte — because
// mid-coverage the "already seen?" branch is a coin flip and the
// mispredictions would dominate the scan. Byte probes beat word-packed
// probes here: consecutive walkers landing in the same 64-vertex word chain
// read-modify-write stalls that byte-granular stores sidestep (measured
// ~25% slower end-to-end on the k=64 expander cover when this loop probes
// the packed set directly), so the lone worker keeps a flat byte probe and
// the word-packed set stays the merge-side representation.
func logNewVisitsBytes(pos []int32, probe []uint8, log []visitEntry, t int64) []visitEntry {
	log = slices.Grow(log, len(pos))
	buf := log[:cap(log)]
	c := len(log)
	for _, p := range pos {
		buf[c] = visitEntry{t: t, v: p}
		c += 1 - int(probe[p])
		probe[p] = 1
	}
	return buf[:c]
}

// scanMarked returns the in-shard index of the first walker standing on a
// marked vertex this round, or -1; it is the hit observer's scan kernel.
func scanMarked(pos []int32, marked []uint64) int {
	for ii, p := range pos {
		if marked[p>>6]&(1<<uint(p&63)) != 0 {
			return ii
		}
	}
	return -1
}

func (st *runState) resetLogs() {
	for w := range st.ws {
		st.ws[w].log = st.ws[w].log[:0]
	}
}

// each runs fn over the run's workers — concurrently when the run is
// sharded. It is the only synchronization point of a run: everything fn
// touches is shard-private, and the merges after the barrier see every
// shard's whole batch.
func (st *runState) each(fn func(w int, ws *worker)) {
	if len(st.ws) == 1 {
		fn(0, &st.ws[0])
		return
	}
	var wg sync.WaitGroup
	for w := range st.ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, &st.ws[w])
		}()
	}
	wg.Wait()
}

// validateSpec checks a run's shape up front so out-of-range vertex ids
// surface as descriptive errors instead of index panics inside the hot
// loop, and fills the spec's defaults.
func (e *Engine) validateSpec(spec *RunSpec, obs []Observer) error {
	if len(obs) == 0 {
		return fmt.Errorf("walk: run requires at least one observer")
	}
	k := len(spec.Starts)
	if k == 0 {
		return fmt.Errorf("walk: k-walk requires at least one walker")
	}
	n := e.g.N()
	for i, s := range spec.Starts {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("walk: start[%d] = %d out of range [0,%d)", i, s, n)
		}
	}
	covers := 0
	for _, o := range obs {
		if err := o.validate(n, k); err != nil {
			return err
		}
		if _, ok := o.(*CoverObserver); ok {
			covers++
		}
	}
	if covers > 1 {
		return fmt.Errorf("walk: at most one CoverObserver per run (it owns the pooled visited set)")
	}
	if spec.Stop == nil {
		spec.Stop = StopWhenAll()
	}
	return nil
}

// Run executes one synchronized k-walk described by spec against the
// given observers and returns the exact round the stop condition fired.
// Walker i is driven by the independent stream (spec.Seed, i), scans are
// shard-private, and merges are round-ordered, so every result — the stop
// round and all observer state — is bit-for-bit identical for a fixed
// (graph, kernel, spec, observers) regardless of Workers and BatchRounds.
//
// Two observer sets are recognized as fused fast paths that keep the
// padded/bit-reservoir stepping kernels and the mid-batch early exits: a
// single CoverObserver (every cover/partial-cover/first-visit/multi-target
// workload) and a single HitObserver. All other sets run the generic loop.
func (e *Engine) Run(spec RunSpec, observers ...Observer) (RunResult, error) {
	if err := e.validateSpec(&spec, observers); err != nil {
		return RunResult{}, err
	}
	needSeen := false
	for _, o := range observers {
		if _, ok := o.(*CoverObserver); ok {
			needSeen = true
		}
	}
	st := e.newRun(spec.Starts, spec.Seed, e.workersFor(len(spec.Starts)), needSeen)
	defer e.pool.Put(st)
	for _, o := range observers {
		o.reset(e, st, spec.Starts)
	}
	if r := spec.Stop.stop(observers); r >= 0 {
		return RunResult{Rounds: r, Stopped: true}, nil
	}
	if spec.MaxRounds <= 0 {
		return RunResult{Rounds: spec.MaxRounds}, nil
	}
	if len(observers) == 1 && satisfactionStop(spec.Stop) {
		switch o := observers[0].(type) {
		case *CoverObserver:
			return e.runCover(st, spec, o), nil
		case *HitObserver:
			return e.runHit(st, spec, o), nil
		}
	}
	return e.runGeneric(st, spec, observers), nil
}

// satisfactionStop reports whether stop fires exactly when the run's sole
// observer is satisfied — the contract the fused loops implement.
// RunToHorizon must take the generic loop even for a single observer.
func satisfactionStop(s StopCondition) bool {
	switch s.(type) {
	case stopWhenAll, stopWhenAny:
		return true
	}
	return false
}

// batchFor clamps the run's batch length to the remaining budget.
func (st *runState) batchFor(t0, maxRounds int64) int {
	b := st.batch
	if int64(b) > maxRounds-t0 {
		b = int(maxRounds - t0)
	}
	return b
}

// runCover is the fused driver for a lone CoverObserver. A lone worker
// shares the merged visited set, so it sees the exact global count and
// stops mid-batch with no overshoot once a pure count goal is reached;
// sharded workers always run the full batch and let the merge find the
// exact stop round.
func (e *Engine) runCover(st *runState, spec RunSpec, cov *CoverObserver) RunResult {
	early := -1
	if cov.sharedSeen && cov.earlyTarget > 0 {
		early = cov.earlyTarget
	}
	for t0 := int64(0); t0 < spec.MaxRounds; {
		b := st.batchFor(t0, spec.MaxRounds)
		cov.preBatch(st)
		st.each(func(w int, ws *worker) {
			// The mode branch lives outside the round loop so each round
			// pays one direct call into its scan kernel — the shape the
			// compiler kept when CoverObserver.scan was still inlinable.
			if cov.sharedSeen {
				for j := 0; j < b; j++ {
					t := t0 + int64(j) + 1
					e.stepRound(st, ws.lo, ws.hi, t)
					ws.log = logNewVisitsBytes(st.pos[ws.lo:ws.hi], cov.probe, ws.log, t)
					if early > 0 && cov.count+len(ws.log) >= early {
						return
					}
				}
				return
			}
			for j := 0; j < b; j++ {
				t := t0 + int64(j) + 1
				e.stepRound(st, ws.lo, ws.hi, t)
				ws.log = logNewVisits(st.pos[ws.lo:ws.hi], ws.seen, ws.log, t)
			}
		})
		cov.beginMerge(st, b, t0)
		for t := t0 + 1; t <= t0+int64(b); t++ {
			cov.mergeRound(st, t)
			if s := cov.satisfied; s >= 0 {
				cov.endMerge(st)
				return RunResult{Rounds: s, Stopped: true}
			}
		}
		cov.endMerge(st)
		t0 += int64(b)
	}
	return RunResult{Rounds: spec.MaxRounds}
}

// runHit is the fused driver for a lone HitObserver: each shard stops
// stepping at the end of the first round it holds a hit, and the merge
// resolves the earliest round (lowest walker index within it) exactly.
func (e *Engine) runHit(st *runState, spec RunSpec, hit *HitObserver) RunResult {
	if hit.none {
		// Nothing is marked; stepping the budget down cannot change that.
		return RunResult{Rounds: spec.MaxRounds}
	}
	for t0 := int64(0); t0 < spec.MaxRounds; {
		b := st.batchFor(t0, spec.MaxRounds)
		hit.preBatch(st)
		st.each(func(w int, ws *worker) {
			for j := 0; j < b; j++ {
				t := t0 + int64(j) + 1
				e.stepRound(st, ws.lo, ws.hi, t)
				if hit.scan(st, ws, w, t); hit.cand[w].t >= 0 {
					return
				}
			}
		})
		hit.beginMerge(st, b, t0)
		for t := t0 + 1; t <= t0+int64(b); t++ {
			hit.mergeRound(st, t)
			if s := hit.satisfied; s >= 0 {
				hit.endMerge(st)
				return RunResult{Rounds: s, Stopped: true}
			}
		}
		hit.endMerge(st)
		t0 += int64(b)
	}
	return RunResult{Rounds: spec.MaxRounds}
}

// runGeneric drives an arbitrary observer set: every shard runs the full
// batch invoking each observer's scan hook after every round, and the
// barrier merges rounds one at a time — evaluating the stop condition
// after each — so the run halts at the exact round the condition first
// held and no observer ever merges state past it.
func (e *Engine) runGeneric(st *runState, spec RunSpec, obs []Observer) RunResult {
	for t0 := int64(0); t0 < spec.MaxRounds; {
		b := st.batchFor(t0, spec.MaxRounds)
		for _, o := range obs {
			o.preBatch(st)
		}
		st.each(func(w int, ws *worker) {
			for j := 0; j < b; j++ {
				t := t0 + int64(j) + 1
				e.stepRound(st, ws.lo, ws.hi, t)
				for _, o := range obs {
					o.scan(st, ws, w, t)
				}
			}
		})
		for _, o := range obs {
			o.beginMerge(st, b, t0)
		}
		stopped := int64(-1)
		for t := t0 + 1; t <= t0+int64(b) && stopped < 0; t++ {
			for _, o := range obs {
				o.mergeRound(st, t)
			}
			stopped = spec.Stop.stop(obs)
		}
		for _, o := range obs {
			o.endMerge(st)
		}
		if stopped >= 0 {
			return RunResult{Rounds: stopped, Stopped: true}
		}
		t0 += int64(b)
	}
	return RunResult{Rounds: spec.MaxRounds}
}

// mustRun is the shim behind the convenience wrappers (KCover, KHit, ...),
// which keep their documented panic-on-misuse contract on top of Run's
// error returns.
func (e *Engine) mustRun(spec RunSpec, obs ...Observer) RunResult {
	res, err := e.Run(spec, obs...)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// KCover runs the synchronized k-walk from starts until the union of
// trajectories covers every vertex, or maxRounds rounds elapse. Walker i is
// driven by the independent stream (seed, i), so the result is bit-for-bit
// reproducible and independent of Workers and BatchRounds.
func (e *Engine) KCover(starts []int32, seed uint64, maxRounds int64) CoverResult {
	res := e.mustRun(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, NewCoverObserver())
	return CoverResult{Steps: res.Rounds, Covered: res.Stopped}
}

// commonStarts places all k walkers at one vertex.
func commonStarts(start int32, k int) []int32 {
	starts := make([]int32, k)
	for i := range starts {
		starts[i] = start
	}
	return starts
}

// KCoverFrom is KCover with all k walkers started at one vertex — the
// paper's C^k(G, start) experiment.
func (e *Engine) KCoverFrom(start int32, k int, seed uint64, maxRounds int64) CoverResult {
	return e.KCover(commonStarts(start, k), seed, maxRounds)
}

// KCoverTarget runs the k-walk until target distinct vertices have been
// visited (target = n is full cover); it panics unless 1 <= target <= n.
func (e *Engine) KCoverTarget(starts []int32, target int, seed uint64, maxRounds int64) CoverResult {
	if target < 1 {
		panic(fmt.Sprintf("walk: cover target %d out of range [1,%d]", target, e.g.N()))
	}
	res := e.mustRun(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, NewCoverTargetObserver(target))
	return CoverResult{Steps: res.Rounds, Covered: res.Stopped}
}

// KFirstVisits runs the k-walk for at most horizon rounds and returns each
// vertex's first-visit round (-1 if unvisited; start vertices get 0). The
// run stops early once every vertex is visited.
func (e *Engine) KFirstVisits(starts []int32, seed uint64, horizon int64) []int64 {
	cov := NewFirstVisitObserver()
	e.mustRun(RunSpec{Starts: starts, Seed: seed, MaxRounds: horizon}, cov)
	return cov.FirstVisits()
}

// KHit runs the k-walk until some walker stands on a vertex with
// marked[v] == true, or maxRounds rounds elapse. A marked start vertex hits
// at round 0; ties within a round resolve to the lowest walker index.
// len(marked) must equal n.
func (e *Engine) KHit(starts []int32, marked []bool, seed uint64, maxRounds int64) HitResult {
	hit := NewHitObserver(marked)
	e.mustRun(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, hit)
	return hit.Result(maxRounds)
}

// KHitFrom is KHit with all k walkers started at one vertex — the k-token
// search-query shape.
func (e *Engine) KHitFrom(start int32, k int, marked []bool, seed uint64, maxRounds int64) HitResult {
	return e.KHit(commonStarts(start, k), marked, seed, maxRounds)
}

// KHitTargets runs the k-walk until every target vertex has been visited
// by some walker, or maxRounds rounds elapse, reporting each target's
// exact first-hit round from the single pass. A single-target run agrees
// with KHit exactly; per-target rounds agree with KFirstVisits exactly.
func (e *Engine) KHitTargets(starts, targets []int32, seed uint64, maxRounds int64) (MultiHitResult, error) {
	if len(targets) == 0 {
		return MultiHitResult{}, fmt.Errorf("walk: KHitTargets requires at least one target")
	}
	cov := NewTargetSetObserver(targets)
	res, err := e.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, cov)
	if err != nil {
		return MultiHitResult{}, err
	}
	return MultiHitResult{Rounds: res.Rounds, FirstHit: cov.TargetHits(), AllHit: res.Stopped}, nil
}

// PartialCoverCurve runs the k-walk once and reports the exact round each
// cover fraction in fractions was reached (fraction α maps to the count
// target max(1, ⌊α·n⌋)). The run stops when the largest fraction is
// reached or maxRounds elapse; unreached fractions report -1. Each entry
// agrees exactly with a KCoverTarget run at the same count target.
func (e *Engine) PartialCoverCurve(starts []int32, fractions []float64, seed uint64, maxRounds int64) (PartialCoverResult, error) {
	if len(fractions) == 0 {
		return PartialCoverResult{}, fmt.Errorf("walk: PartialCoverCurve requires at least one fraction")
	}
	// The observer wants nondecreasing thresholds; sort through an index
	// permutation and report rounds in the caller's order.
	order := make([]int, len(fractions))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return fractions[order[a]] < fractions[order[b]] })
	sorted := make([]float64, len(fractions))
	for i, idx := range order {
		sorted[i] = fractions[idx]
	}
	cov := NewPartialCoverObserver(sorted)
	res, err := e.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, cov)
	if err != nil {
		return PartialCoverResult{}, err
	}
	rounds := make([]int64, len(fractions))
	for i, idx := range order {
		rounds[idx] = cov.ThresholdRounds()[i]
	}
	return PartialCoverResult{Rounds: rounds, FinalRound: res.Rounds, Complete: res.Stopped}, nil
}

// KMeetingTime runs the k-walk until any two walkers occupy the same
// vertex at the end of a round (walkers sharing a start meet at round 0),
// or maxRounds rounds elapse. Collisions are resolved at the batch
// barrier, so the result is exact and independent of Workers/BatchRounds.
func (e *Engine) KMeetingTime(starts []int32, seed uint64, maxRounds int64) (MeetResult, error) {
	m := NewMeetingObserver()
	res, err := e.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, m)
	if err != nil {
		return MeetResult{}, err
	}
	a, b := m.MeetPair()
	return MeetResult{Rounds: res.Rounds, WalkerA: a, WalkerB: b, Vertex: m.MeetVertex(), Met: res.Stopped}, nil
}

// KCoalescenceTime runs the k-walk until all walkers have merged into one
// meeting-equivalence class — walkers that have once shared a vertex are
// merged, modeling information fusing on contact — or maxRounds rounds
// elapse. The first meeting round of the same run is reported too; for
// k = 2 the two coincide.
func (e *Engine) KCoalescenceTime(starts []int32, seed uint64, maxRounds int64) (CoalesceResult, error) {
	c := NewCoalescenceObserver()
	res, err := e.Run(RunSpec{Starts: starts, Seed: seed, MaxRounds: maxRounds}, c)
	if err != nil {
		return CoalesceResult{}, err
	}
	return CoalesceResult{
		Rounds:       res.Rounds,
		FirstMeeting: c.MeetRound(),
		Groups:       c.Groups(),
		Coalesced:    res.Stopped,
	}, nil
}
