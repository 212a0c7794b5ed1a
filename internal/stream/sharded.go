package stream

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
)

// Policy selects how a Monitor weights past observations. The concrete
// policies are Exponential, Tumbling and Sliding; all run on the same
// sharded engine and report through the same Monitor methods.
type Policy interface {
	validate() error
	newEngine(space *core.Space, outcomes []string, shards int) (engine, error)
	// String renders the policy for diagnostics and service listings.
	String() string
}

// Exponential decays every prior observation's effective count by
// 2^(−1/HalfLife) per new observation: after HalfLife further decisions
// an observation's influence is halved. HalfLife must be positive and
// finite.
type Exponential struct{ HalfLife float64 }

func (p Exponential) validate() error {
	if !(p.HalfLife > 0) || math.IsInf(p.HalfLife, 0) {
		return fmt.Errorf("stream: half-life must be positive and finite, got %v", p.HalfLife)
	}
	return nil
}

func (p Exponential) String() string { return fmt.Sprintf("exponential(half_life=%g)", p.HalfLife) }

// Tumbling counts only the current fixed-size window of Window
// observations; at each window boundary the table resets. Window must
// be at least 1.
type Tumbling struct{ Window int }

func (p Tumbling) validate() error {
	if p.Window < 1 {
		return fmt.Errorf("stream: tumbling window must be at least 1, got %d", p.Window)
	}
	return nil
}

func (p Tumbling) String() string { return fmt.Sprintf("tumbling(window=%d)", p.Window) }

// Sliding approximates a sliding window of the most recent Window
// observations using Buckets sub-windows of Window/Buckets observations
// each: old observations are evicted one bucket at a time, so the
// covered span varies between Window−Window/Buckets+1 and Window.
// Window must be divisible by Buckets and Buckets must be at least 2
// (Buckets == 1 is exactly Tumbling).
type Sliding struct{ Window, Buckets int }

func (p Sliding) validate() error {
	if p.Buckets < 2 {
		return fmt.Errorf("stream: sliding needs at least 2 buckets, got %d (use Tumbling for 1)", p.Buckets)
	}
	if p.Window < p.Buckets {
		return fmt.Errorf("stream: sliding window %d smaller than bucket count %d", p.Window, p.Buckets)
	}
	if p.Window%p.Buckets != 0 {
		return fmt.Errorf("stream: sliding window %d not divisible by bucket count %d", p.Window, p.Buckets)
	}
	return nil
}

func (p Sliding) String() string {
	return fmt.Sprintf("sliding(window=%d,buckets=%d)", p.Window, p.Buckets)
}

// Config configures a Monitor beyond its space and outcomes.
type Config struct {
	// Policy is the window policy (required).
	Policy Policy
	// Alpha is the Eq. 7 smoothing applied when reporting ε
	// (0 = empirical Eq. 6 estimator).
	Alpha float64
	// Shards is the ingest parallelism: the observation table is split
	// into this many independently-locked shards (rounded up to a power
	// of two). 0 selects a default sized to the machine (twice
	// GOMAXPROCS, capped at 256). 1 yields a single-shard monitor whose
	// ingest serializes on one lock.
	Shards int
}

// DefaultShards returns the shard count a Config with Shards == 0
// resolves to on this machine. Capacity planners (e.g. dfserve's
// per-monitor memory cap) use it to account for the per-shard table
// replication: a monitor's storage is roughly shards × cells (× buckets
// for sliding windows) float64s.
func DefaultShards() int {
	n, _ := resolveShards(0) // requested 0 cannot fail
	return n
}

// resolveShards turns the configured shard count into a power of two in
// [1, 1024].
func resolveShards(requested int) (int, error) {
	if requested < 0 {
		return 0, fmt.Errorf("stream: negative shard count %d", requested)
	}
	n := requested
	if n == 0 {
		n = 2 * runtime.GOMAXPROCS(0)
		if n > 256 {
			n = 256
		}
	}
	if n > 1024 {
		return 0, fmt.Errorf("stream: shard count %d exceeds 1024", requested)
	}
	s := 1
	for s < n {
		s <<= 1
	}
	return s, nil
}

// engine is the policy-specific sharded storage behind a Monitor.
// Tickets are 1-based and strictly increasing; ingest never blocks on
// reporting.
type engine interface {
	// ingestOne records one observation holding ticket t.
	ingestOne(t int64, group, outcome int)
	// ingest records observations with tickets t0+1 … t0+len(groups),
	// all routed to one shard so the per-batch costs amortize.
	ingest(t0 int64, groups, outcomes []int)
	// snapshotInto overwrites dst with the effective counts as of
	// ticket now.
	snapshotInto(dst *core.Counts, now int64) error
}

// shardIndex routes a ticket to a shard with a splitmix64-style finalizer
// so consecutive tickets (and hence concurrent batches) disperse across
// shards instead of convoying on one lock.
func shardIndex(t int64, mask uint64) int {
	h := uint64(t)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h & mask)
}

// shardPad separates per-shard hot state (the mutex word above all) onto
// its own cache lines so shards ingesting on different cores don't
// false-share.
type shardPad [112]byte

// rebaseLog2 bounds the exponent of any stored contribution: when a
// shard's pending contribution would exceed 2^rebaseLog2 relative to its
// weight basis, the shard rescales its counts and re-anchors the basis.
const rebaseLog2 = 256

// expEngine implements the Exponential policy. The contribution of the
// observation holding ticket t is 2^((t−basis)/halfLife) in its shard's
// local basis; a snapshot folds shard s with one scaled add of
// 2^((basis_s−now)/halfLife), which normalizes the newest observation to
// weight ~1 and every older one to 2^(−age/halfLife): the decay
// definition, cell (g, y) = Σ 2^(−age/halfLife) over the observations
// that landed in it.
type expEngine struct {
	k        int     // number of outcomes (cell stride)
	invH     float64 // log2 growth per ticket: 1/halfLife
	invD     float64 // per-ticket contribution multiplier, 2^invH
	maxChunk int     // batch sub-chunk bounding exponent growth between rebase checks
	mask     uint64
	shards   []expShard
}

type expShard struct {
	mu     sync.Mutex
	counts *core.Counts
	basis  int64 // ticket the stored scale is anchored at
	_      shardPad
}

func (p Exponential) newEngine(space *core.Space, outcomes []string, shards int) (engine, error) {
	e := &expEngine{
		k:    len(outcomes),
		invH: 1 / p.HalfLife,
		invD: math.Exp2(1 / p.HalfLife),
		mask: uint64(shards - 1),
	}
	// Chunks of ≤ 64·halfLife tickets keep the running weight under
	// 2^64 of the (freshly rebased) basis, far below the rebase bound.
	e.maxChunk = 1 << 30
	if c := 64 * p.HalfLife; c < float64(e.maxChunk) {
		e.maxChunk = int(c) + 1
	}
	e.shards = make([]expShard, shards)
	for i := range e.shards {
		c, err := core.NewCounts(space, outcomes)
		if err != nil {
			return nil, err
		}
		e.shards[i].counts = c
	}
	return e, nil
}

// rebase rescales the shard's counts into a basis anchored at ticket to,
// preserving all ratios. The shard lock must be held.
func (s *expShard) rebase(to int64, invH float64) {
	factor := math.Exp2(float64(s.basis-to) * invH)
	cells := s.counts.Cells()
	for i := range cells {
		cells[i] *= factor
	}
	s.basis = to
}

func (e *expEngine) ingestOne(t int64, group, outcome int) {
	s := &e.shards[shardIndex(t, e.mask)]
	s.mu.Lock()
	if float64(t-s.basis)*e.invH > rebaseLog2 {
		s.rebase(t-1, e.invH)
	}
	s.counts.Cells()[group*e.k+outcome] += math.Exp2(float64(t-s.basis) * e.invH)
	s.mu.Unlock()
}

func (e *expEngine) ingest(t0 int64, groups, outcomes []int) {
	s := &e.shards[shardIndex(t0+1, e.mask)]
	s.mu.Lock()
	cells := s.counts.Cells()
	i := 0
	for i < len(groups) {
		chunk := len(groups) - i
		if chunk > e.maxChunk {
			chunk = e.maxChunk
		}
		t := t0 + int64(i) + 1 // ticket of element i
		if float64(t+int64(chunk)-1-s.basis)*e.invH > rebaseLog2 {
			s.rebase(t-1, e.invH)
		}
		w := math.Exp2(float64(t-s.basis) * e.invH)
		for j := 0; j < chunk; j++ {
			cells[groups[i+j]*e.k+outcomes[i+j]] += w
			w *= e.invD
		}
		i += chunk
	}
	s.mu.Unlock()
}

func (e *expEngine) snapshotInto(dst *core.Counts, now int64) error {
	dst.Reset()
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		scale := math.Exp2(float64(s.basis-now) * e.invH)
		err := dst.AddScaled(s.counts, scale)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// winEngine implements the Tumbling and Sliding policies. Ticket t
// belongs to epoch (t−1)/span; each shard keeps a ring of win buckets
// tagged with their epoch, and a snapshot at ticket now merges every
// bucket whose epoch lies in the last win epochs. Tumbling is the
// win == 1 case. Bucket attribution follows the ticket, not arrival
// order, so after writers quiesce the merged window is exactly the
// sequential result.
type winEngine struct {
	k      int
	span   int64 // tickets per bucket
	win    int   // buckets per reported window
	mask   uint64
	shards []winShard
}

type winShard struct {
	mu   sync.Mutex
	ring []winBucket // len == win; epoch e lives in slot e % win
	log  dirtyLog
	_    shardPad
}

type winBucket struct {
	epoch  int64 // -1 while empty
	counts *core.Counts
}

func newWinEngine(space *core.Space, outcomes []string, shards int, span int64, win int) (engine, error) {
	e := &winEngine{
		k:    len(outcomes),
		span: span,
		win:  win,
		mask: uint64(shards - 1),
	}
	e.shards = make([]winShard, shards)
	for i := range e.shards {
		ring := make([]winBucket, win)
		for j := range ring {
			c, err := core.NewCounts(space, outcomes)
			if err != nil {
				return nil, err
			}
			ring[j] = winBucket{epoch: -1, counts: c}
		}
		e.shards[i].ring = ring
	}
	return e, nil
}

func (p Tumbling) newEngine(space *core.Space, outcomes []string, shards int) (engine, error) {
	return newWinEngine(space, outcomes, shards, int64(p.Window), 1)
}

func (p Sliding) newEngine(space *core.Space, outcomes []string, shards int) (engine, error) {
	return newWinEngine(space, outcomes, shards, int64(p.Window/p.Buckets), p.Buckets)
}

// bucketFor returns the ring slot for epoch, recycling it if it still
// holds an evicted epoch. It returns nil for a straggler whose epoch was
// already recycled (only reachable when an ingest stalls for a full
// window while others advance ≥ win epochs). The shard lock must be
// held.
func (s *winShard) bucketFor(epoch int64) *winBucket {
	b := &s.ring[int(epoch%int64(len(s.ring)))]
	if b.epoch != epoch {
		if b.epoch > epoch {
			return nil
		}
		b.counts.Reset()
		b.epoch = epoch
	}
	return b
}

func (e *winEngine) ingestOne(t int64, group, outcome int) {
	s := &e.shards[shardIndex(t, e.mask)]
	s.mu.Lock()
	if b := s.bucketFor((t - 1) / e.span); b != nil {
		cell := group*e.k + outcome
		b.counts.Cells()[cell]++
		if s.log.enabled() {
			s.log.record(cell, t)
		}
	}
	s.mu.Unlock()
}

func (e *winEngine) ingest(t0 int64, groups, outcomes []int) {
	s := &e.shards[shardIndex(t0+1, e.mask)]
	s.mu.Lock()
	logOn := s.log.enabled()
	i := 0
	for i < len(groups) {
		t := t0 + int64(i) + 1
		epoch := (t - 1) / e.span
		// Run of batch elements whose tickets stay inside this epoch.
		run := int((epoch+1)*e.span - t + 1)
		if rem := len(groups) - i; run > rem {
			run = rem
		}
		if b := s.bucketFor(epoch); b != nil {
			cells := b.counts.Cells()
			for j := 0; j < run; j++ {
				cell := groups[i+j]*e.k + outcomes[i+j]
				cells[cell]++
				if logOn {
					s.log.record(cell, t+int64(j))
				}
			}
		}
		i += run
	}
	s.mu.Unlock()
}

// enableDirty attaches (or re-attaches, after ReadState swaps shard
// state) a dirty-cell log of the given capacity to every shard, so the
// incremental consumer (incEngine) can drain the cells each batch
// touched instead of re-merging all shards.
func (e *winEngine) enableDirty(capacity int) {
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		s.log.init(capacity)
		s.mu.Unlock()
	}
}

func (e *winEngine) snapshotInto(dst *core.Counts, now int64) error {
	dst.Reset()
	if now == 0 {
		return nil
	}
	hi := (now - 1) / e.span
	lo := hi - int64(e.win) + 1
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		for j := range s.ring {
			b := &s.ring[j]
			if b.epoch >= 0 && b.epoch >= lo && b.epoch <= hi {
				if err := dst.Merge(b.counts); err != nil {
					s.mu.Unlock()
					return err
				}
			}
		}
		s.mu.Unlock()
	}
	return nil
}
