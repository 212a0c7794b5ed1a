package stream

// Incremental ε maintenance for the window policies: instead of
// re-merging every shard into a snapshot and recomputing ε from scratch
// on each threshold check (O(shards × cells) per check), a tumbling or
// sliding monitor keeps a running aggregate that is advanced by the
// *deltas* each batch produced:
//
//  1. Every shard appends (cell, ticket) pairs to a fixed-capacity dirty
//     log as observations land (a couple of stores under the shard lock
//     it already holds).
//  2. A check drains the logs and folds the entries into one aggregate
//     table — O(cells touched since the last check), not O(lattice).
//     The aggregate mirrors the engine's epoch ring, so bucket
//     evictions emit negative deltas.
//  3. The table caches each outcome's rate extrema over the supported
//     groups (core.RateExtrema, with core.Epsilon's min-index
//     tie-breaks); a refresh folds in only the groups the drain touched.
//     ε and every metric limit with an extrema form
//     (core.ExtremaMetric) are judged from those extrema. Other metrics
//     are evaluated on a CPT filled from the aggregate — O(cells), but
//     still no shard merge.
//
// Window counts are integers, so every aggregate cell is an exact sum
// of ±1 deltas and equals the merged snapshot's cell bit for bit: the
// incremental result is the full recompute's, not an approximation of
// it. The aggregate is *derived* state: a log overflow or a ReadState
// restore triggers a full rebuild from the authoritative per-shard
// engine state, and WriteState/ReadState stay byte-identical by
// construction (nothing incremental is serialized).
//
// MetricSubsets extends the same machinery down the attribute-subset
// lattice: deltas applied to the full table accumulate in a pending set
// and are folded into each subset marginal along the PR-2
// parent-derivation order (each subset derived from a one-attribute-
// larger parent via core.Space.DropStride), so a warm subset ladder
// costs O(pending deltas × subsets), independent of the lattice size.
// Every marginal caches its own rate extrema, from which ε and each
// extrema-form metric get their ladder.
//
// The exponential policy has no incremental engine: its decayed
// weights are not integers, so an aggregate folded in drain order would
// round differently from the shard merge that its reports, Epsilon and
// WriteState read. Its Watch checks merge the shards (Watch.CheckFull),
// and MetricSubsets declines it.

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/core"
)

// ErrIncrementalUnavailable is returned by Monitor.MetricSubsets for
// monitors whose ladders it does not maintain: the exponential policy,
// which has no incremental engine, and spaces of more than maxIncAttrs
// attributes. Callers walk the snapshot ladder instead.
var ErrIncrementalUnavailable = errors.New("stream: incremental subset ladder not available for this monitor")

// maxIncAttrs caps the attributes whose subset lattice MetricSubsets
// maintains: 2^p marginal tables, each updated on every change, is not a
// ladder worth keeping warm past 16 attributes.
const maxIncAttrs = 16

// defaultDirtyLogCap is the per-shard dirty-log capacity: 4096 entries
// (~48 KiB/shard) absorbs dozens of max-size batches between checks;
// checked ingest drains every batch, so overflow only happens when a
// monitor ingests heavily *without* checking, and then the rebuild it
// triggers is no worse than the snapshot the caller would have paid
// anyway.
const defaultDirtyLogCap = 4096

// dirtyLog is one shard's append-only delta record: the cells its engine
// touched and the tickets that touched them, recorded under the shard
// lock the writer already holds. cells == nil means logging is disabled
// (no incremental consumer attached). A full log sets overflow and drops
// further entries; the consumer rebuilds from shard state instead of
// trusting an incomplete log.
type dirtyLog struct {
	cells    []int32
	tickets  []int64
	n        int
	overflow bool
}

// init (re)allocates the log at the given capacity. The shard lock must
// be held.
func (l *dirtyLog) init(capacity int) {
	l.cells = make([]int32, capacity)
	l.tickets = make([]int64, capacity)
	l.n = 0
	l.overflow = false
}

// enabled reports whether a consumer has attached a log.
func (l *dirtyLog) enabled() bool { return l.cells != nil }

// reset empties the log after a rebuild consumed the shard's full state.
// The shard lock must be held.
func (l *dirtyLog) reset() {
	l.n = 0
	l.overflow = false
}

// record appends one (cell, ticket) entry. The shard lock must be held.
//
//df:hotpath
func (l *dirtyLog) record(cell int, t int64) {
	if l.n == len(l.cells) {
		l.overflow = true
		return
	}
	l.cells[l.n] = int32(cell)
	l.tickets[l.n] = t
	l.n++
}

// incTable is a running contingency aggregate with cached per-outcome
// rate extrema: the state from which ε and the extrema-form metrics are
// re-derived after a delta drain without rescanning the whole table.
// All mutation goes through addCell, which maintains group totals, the
// supported-group count, and a generation-stamped dirty-group set;
// refresh then updates the cached extrema for exactly the dirty groups,
// replicating core.Epsilon's scan semantics (strict replace, so HiG/LoG
// are the minimum index among argmax/argmin — witness-identical to a
// full scan).
type incTable struct {
	size  int // groups
	k     int // outcomes
	kf    float64
	alpha float64

	agg   []float64 // size×k cells, group-major (same layout as core.Counts)
	ns    []float64 // per-group totals
	total float64

	// ext.Supported counts the groups with ns > 0 and is kept current by
	// addCell; the per-outcome extrema are current after refresh.
	ext core.RateExtrema

	// Generation-stamped dirty-group set: stamp[g] == gen marks g queued
	// in dirty[:nDirty]. Marks survive across drains until refresh runs,
	// so a cold-start check below MinEffective pays only the drain.
	stamp  []uint32
	gen    uint32
	dirty  []int32
	nDirty int
}

func newIncTable(size, k int, alpha float64) *incTable {
	return &incTable{
		size:  size,
		k:     k,
		kf:    float64(k),
		alpha: alpha,
		agg:   make([]float64, size*k),
		ns:    make([]float64, size),
		ext:   core.NewRateExtrema(k),
		stamp: make([]uint32, size),
		gen:   1,
		dirty: make([]int32, size),
	}
}

// reset returns the table to its zero state for a rebuild.
func (t *incTable) reset() {
	clear(t.agg)
	clear(t.ns)
	t.total = 0
	clear(t.stamp)
	t.gen = 1
	t.nDirty = 0
	t.ext.Reset()
}

// addCell applies one delta to a cell, maintaining group totals, the
// supported count and the dirty-group set. Deltas are ±integers: entries
// and bucket evictions.
//
//df:hotpath
func (t *incTable) addCell(cell int, d float64) {
	g := cell / t.k
	old := t.ns[g]
	t.agg[cell] += d
	t.ns[g] += d
	t.total += d
	if old > 0 {
		if t.ns[g] <= 0 {
			t.ext.Supported--
		}
	} else if t.ns[g] > 0 {
		t.ext.Supported++
	}
	if t.stamp[g] != t.gen {
		t.stamp[g] = t.gen
		t.dirty[t.nDirty] = int32(g)
		t.nDirty++
	}
}

// prob is the estimator core's SmoothedInto/EmpiricalInto would compute
// for a supported group — identical expressions, so identical bits.
func (t *incTable) prob(g, y int) float64 {
	if t.alpha > 0 {
		return (t.agg[g*t.k+y] + t.alpha) / (t.ns[g] + t.kf*t.alpha)
	}
	return t.agg[g*t.k+y] / t.ns[g]
}

// refresh folds the dirty-group set into the cached extrema. Cost is
// O(dirty × outcomes) plus a full rescan of any outcome whose cached
// extremum moved against itself (its group's value dropped from the top,
// rose from the bottom, or lost support).
func (t *incTable) refresh() {
	for i := 0; i < t.nDirty; i++ {
		t.updateGroup(int(t.dirty[i]))
	}
	t.nDirty = 0
	t.gen++
	if t.gen == 0 { // wrapped: make every stamp non-matching again
		clear(t.stamp)
		t.gen = 1
	}
}

// updateGroup folds one group's new state into the cached extrema,
// preserving the invariant that hiG/loG are the minimum index among
// argmax/argmin over supported groups — the witness core.Epsilon's
// ascending strict-replace scan produces.
func (t *incTable) updateGroup(g int) {
	x := &t.ext
	if t.ns[g] <= 0 {
		// Lost support: only matters if it was a cached extremum.
		for y := 0; y < t.k; y++ {
			if x.HiG[y] == g || x.LoG[y] == g {
				t.rescan(y)
			}
		}
		return
	}
	for y := 0; y < t.k; y++ {
		p := t.prob(g, y)
		if x.HiG[y] == -1 {
			// First supported group this outcome has seen.
			x.Hi[y], x.HiG[y] = p, g
			x.Lo[y], x.LoG[y] = p, g
			continue
		}
		if x.HiG[y] == g {
			if p >= x.Hi[y] {
				x.Hi[y] = p
			} else {
				t.rescan(y) // the max dropped; someone else may lead now
				continue
			}
		} else if p > x.Hi[y] || (p == x.Hi[y] && g < x.HiG[y]) {
			x.Hi[y], x.HiG[y] = p, g
		}
		if x.LoG[y] == g {
			if p <= x.Lo[y] {
				x.Lo[y] = p
			} else {
				t.rescan(y) // the min rose; someone else may trail now
			}
		} else if p < x.Lo[y] || (p == x.Lo[y] && g < x.LoG[y]) {
			x.Lo[y], x.LoG[y] = p, g
		}
	}
}

// rescan recomputes one outcome's extrema from scratch, mirroring
// core.Epsilon's per-outcome scan exactly.
func (t *incTable) rescan(y int) {
	x := &t.ext
	x.ResetOutcome(y)
	for g := 0; g < t.size; g++ {
		if t.ns[g] > 0 {
			x.Observe(y, g, t.prob(g, y))
		}
	}
}

// cellDelta accumulates pending cell deltas for the subset lattice: a
// dense delta image plus a generation-stamped list of touched cells, so
// propagation visits only cells that actually changed.
type cellDelta struct {
	delta []float64
	stamp []uint32
	gen   uint32
	list  []int32
	n     int
}

func newCellDelta(cells int) *cellDelta {
	return &cellDelta{
		delta: make([]float64, cells),
		stamp: make([]uint32, cells),
		gen:   1,
		list:  make([]int32, cells),
	}
}

// add folds one delta into the pending set.
//
//df:hotpath
func (d *cellDelta) add(cell int, v float64) {
	d.delta[cell] += v
	if d.stamp[cell] != d.gen {
		d.stamp[cell] = d.gen
		d.list[d.n] = int32(cell)
		d.n++
	}
}

// clear zeroes the touched deltas and starts a new generation.
func (d *cellDelta) clear() {
	for i := 0; i < d.n; i++ {
		d.delta[d.list[i]] = 0
	}
	d.n = 0
	d.gen++
	if d.gen == 0 {
		clear(d.stamp)
		d.gen = 1
	}
}

// incNode is one tracked subset of the attribute lattice: a marginal
// incTable plus the projection arithmetic deriving it from its parent
// (the subset one attribute larger, PR-2 parent order: the lowest
// missing attribute). out accumulates the deltas applied to this node so
// its own children can derive theirs; it is nil for nodes no child reads.
type incNode struct {
	mask       int
	parent     int
	sub        *core.Space
	dropDiv    int // parent-group divisor for the dropped attribute
	dropStride int // parent-group stride of the dropped attribute
	tab        *incTable
	out        *cellDelta
	needOut    bool
}

// incBucket mirrors one epoch of the windowed engines, merged across
// shards, so the aggregate can subtract exactly what the engine evicts.
type incBucket struct {
	epoch int64
	cells []float64
}

// incEngine is the incremental consumer attached to a window monitor: it
// drains the shards' dirty logs into a running aggregate and derives ε
// (and the subset ladder) from it. All state is guarded by mu; the lock
// order is Monitor.incMu → incEngine.mu → shard mutexes.
type incEngine struct {
	mu sync.Mutex
	m  *Monitor

	logCap int
	valid  bool // false forces a rebuild on the next sync

	// scratch for draining one shard's log outside its lock
	scCells []int32
	scTicks []int64

	full *incTable

	// counts and cpt are the lazily-allocated buffers cptLocked converts
	// the aggregate through, for metric limits without an extrema form.
	counts *core.Counts
	cpt    *core.CPT

	weng *winEngine
	span int64
	win  int
	ring []incBucket

	// subset lattice (built lazily on first MetricSubsets)
	fullMask    int
	nodes       []*incNode // indexed by attribute mask
	nodeOrder   []*incNode // decreasing popcount: parents first
	subsetOrder [][]string
	pend        *cellDelta // deltas applied to full since last propagation
}

func newIncEngine(m *Monitor, eng *winEngine, logCap int) *incEngine {
	inc := &incEngine{
		m:       m,
		logCap:  logCap,
		scCells: make([]int32, logCap),
		scTicks: make([]int64, logCap),
		full:    newIncTable(m.space.Size(), len(m.outcomes), m.alpha),
	}
	inc.bind(eng)
	return inc
}

// bind points the engine at the monitor's current window engine; called
// at construction and again by ReadState, which swaps the engine out.
func (inc *incEngine) bind(e *winEngine) {
	inc.weng = e
	inc.span = e.span
	inc.win = e.win
	if inc.ring == nil {
		inc.ring = make([]incBucket, e.win)
		cells := inc.m.space.Size() * len(inc.m.outcomes)
		for i := range inc.ring {
			inc.ring[i] = incBucket{epoch: -1, cells: make([]float64, cells)}
		}
	}
	inc.valid = false
}

// rebind is bind under the engine's own lock, for ReadState.
func (inc *incEngine) rebind(eng *winEngine) {
	inc.mu.Lock()
	inc.bind(eng)
	inc.mu.Unlock()
}

// sync brings the aggregate up to date with the shards: a rebuild when
// derived state is missing or a log overflowed, otherwise a drain of the
// dirty logs plus window evictions. mu must be held.
func (inc *incEngine) sync(now int64) {
	if !inc.valid || !inc.drain() {
		inc.rebuild(now)
		return
	}
	inc.evictTo(now)
}

// drain empties every shard's dirty log into the aggregate. It returns
// false when any log overflowed (the deltas are incomplete; the caller
// must rebuild). Each log is copied out under its shard lock and applied
// outside it, so ingestion is blocked only for the copy.
func (inc *incEngine) drain() bool {
	for i := range inc.weng.shards {
		s := &inc.weng.shards[i]
		s.mu.Lock()
		if s.log.overflow {
			s.mu.Unlock()
			return false
		}
		n := s.log.n
		copy(inc.scCells[:n], s.log.cells[:n])
		copy(inc.scTicks[:n], s.log.tickets[:n])
		s.log.n = 0
		s.mu.Unlock()
		inc.applyWin(inc.scCells[:n], inc.scTicks[:n])
	}
	return true
}

// applyWin folds drained entries into the windowed aggregate via the
// epoch ring: a new epoch colliding with an old ring slot evicts the old
// epoch first (negative deltas), and a straggler entry whose epoch was
// already recycled is provably outside the reporting window (its epoch
// is ≤ slotEpoch − win) and is skipped, matching the engine's own
// snapshot filter. The epoch and ring slot are decoded once per run of
// consecutive tickets inside one epoch — a drained batch is one such
// run per epoch it spans — as winEngine.ingest does.
//
//df:hotpath
func (inc *incEngine) applyWin(cells []int32, ticks []int64) {
	t := inc.full
	i := 0
	for i < len(cells) {
		tk := ticks[i]
		epoch := (tk - 1) / inc.span
		end := len(cells)
		if left := (epoch+1)*inc.span - tk + 1; left < int64(end-i) {
			end = i + int(left)
		}
		j := i + 1
		for j < end && ticks[j] == tk+int64(j-i) {
			j++
		}
		b := &inc.ring[int(epoch%int64(inc.win))]
		if b.epoch > epoch {
			i = j
			continue
		}
		if b.epoch < epoch {
			inc.evictBucket(b)
			b.epoch = epoch
		}
		for _, c := range cells[i:j] {
			b.cells[c]++
			t.addCell(int(c), 1)
			if inc.pend != nil {
				inc.pend.add(int(c), 1)
			}
		}
		i = j
	}
}

// evictBucket subtracts one mirrored epoch from the aggregate — the
// negative-delta half of the window policies — and empties it.
//
//df:hotpath
func (inc *incEngine) evictBucket(b *incBucket) {
	t := inc.full
	for c := range b.cells {
		v := b.cells[c]
		if v != 0 {
			t.addCell(c, -v)
			if inc.pend != nil {
				inc.pend.add(c, -v)
			}
			b.cells[c] = 0
		}
	}
	b.epoch = -1
}

// evictTo drops every mirrored epoch that has left the window ending at
// ticket now, mirroring winEngine.snapshotInto's [hi−win+1, hi] filter.
func (inc *incEngine) evictTo(now int64) {
	if now == 0 {
		return
	}
	lo := (now-1)/inc.span - int64(inc.win) + 1
	for i := range inc.ring {
		b := &inc.ring[i]
		if b.epoch >= 0 && b.epoch < lo {
			inc.evictBucket(b)
		}
	}
}

// rebuild rederives the aggregate (and, when present, the subset
// lattice) from the authoritative per-shard engine state, clearing every
// dirty log under the same lock hold that reads its shard — an entry is
// either in the fold or in a log that survives for the next drain, never
// both and never neither.
func (inc *incEngine) rebuild(now int64) {
	pend := inc.pend
	inc.pend = nil // the fold below must not re-accumulate pending deltas
	t := inc.full
	t.reset()
	for i := range inc.ring {
		inc.ring[i].epoch = -1
		clear(inc.ring[i].cells)
	}
	// Merge engine buckets into the mirrored ring with the same collision
	// rule as applyWin: only the highest epoch per slot can be inside any
	// window that includes it.
	for i := range inc.weng.shards {
		s := &inc.weng.shards[i]
		s.mu.Lock()
		for j := range s.ring {
			eb := &s.ring[j]
			if eb.epoch < 0 {
				continue
			}
			b := &inc.ring[int(eb.epoch%int64(inc.win))]
			if b.epoch > eb.epoch {
				continue
			}
			if b.epoch < eb.epoch {
				clear(b.cells)
				b.epoch = eb.epoch
			}
			for c, v := range eb.counts.Cells() {
				b.cells[c] += v
			}
		}
		s.log.reset()
		s.mu.Unlock()
	}
	// Drop epochs outside the window ending at now, then fold the rest
	// into the aggregate. Epochs beyond now (racing ingest that outran
	// our ticket read) are kept: their log entries were just cleared, so
	// the ring is their only record.
	if now > 0 {
		lo := (now-1)/inc.span - int64(inc.win) + 1
		for i := range inc.ring {
			b := &inc.ring[i]
			if b.epoch >= 0 && b.epoch < lo {
				clear(b.cells)
				b.epoch = -1
			}
		}
	}
	for i := range inc.ring {
		b := &inc.ring[i]
		if b.epoch < 0 {
			continue
		}
		for c, v := range b.cells {
			if v != 0 {
				t.addCell(c, v)
			}
		}
	}
	t.refresh()
	if inc.nodes != nil {
		inc.rebuildNodes()
	}
	if pend != nil {
		pend.clear()
		inc.pend = pend
	}
	inc.valid = true
}

// cptLocked fills the engine's CPT buffer from the synced aggregate
// under the monitor's estimator, for the metric limits that have no
// extrema form. It costs O(cells) and no shard merge; the aggregate
// equals the merged snapshot cell for cell, so the CPT is the one
// CheckFull builds. mu must be held.
func (inc *incEngine) cptLocked() (*core.CPT, error) {
	if inc.cpt == nil {
		counts, err := core.NewCounts(inc.m.space, inc.m.outcomes)
		if err != nil {
			return nil, err
		}
		cpt, err := core.NewCPT(inc.m.space, inc.m.outcomes)
		if err != nil {
			return nil, err
		}
		inc.counts, inc.cpt = counts, cpt
	}
	copy(inc.counts.Cells(), inc.full.agg)
	return inc.cpt, estimate(inc.counts, inc.cpt, inc.m.alpha)
}

// buildNodes constructs the subset lattice: one marginal table per
// nonempty proper attribute subset, each derived from its parent (the
// subset plus the lowest missing attribute — the same parent order
// core.EpsilonSubsetsCounts walks) via DropStride index arithmetic.
// Called lazily on the first MetricSubsets, which has already refused
// spaces of more than maxIncAttrs attributes; mu must be held.
func (inc *incEngine) buildNodes() error {
	space := inc.m.space
	p := space.NumAttrs()
	attrs := space.Attrs()
	k := len(inc.m.outcomes)
	inc.fullMask = 1<<p - 1
	inc.subsetOrder = space.SubsetNames()
	inc.nodes = make([]*incNode, inc.fullMask+1)
	names := make([]string, 0, p)
	for sz := p - 1; sz >= 1; sz-- {
		for mask := 1; mask < inc.fullMask; mask++ {
			if bits.OnesCount(uint(mask)) != sz {
				continue
			}
			names = names[:0]
			for i := 0; i < p; i++ {
				if mask&(1<<i) != 0 {
					names = append(names, attrs[i].Name)
				}
			}
			sub, _, err := space.Subset(names...)
			if err != nil {
				return err
			}
			missing := inc.fullMask &^ mask
			dropBit := missing & -missing
			parent := mask | dropBit
			parentSpace := space
			if parent != inc.fullMask {
				parentSpace = inc.nodes[parent].sub
			}
			div, stride := parentSpace.DropStride(bits.OnesCount(uint(parent & (dropBit - 1))))
			nd := &incNode{
				mask:       mask,
				parent:     parent,
				sub:        sub,
				dropDiv:    div,
				dropStride: stride,
				tab:        newIncTable(sub.Size(), k, inc.m.alpha),
			}
			inc.nodes[mask] = nd
			inc.nodeOrder = append(inc.nodeOrder, nd)
		}
	}
	for _, nd := range inc.nodeOrder {
		if nd.parent != inc.fullMask {
			inc.nodes[nd.parent].needOut = true
		}
	}
	for _, nd := range inc.nodeOrder {
		if nd.needOut {
			nd.out = newCellDelta(nd.sub.Size() * k)
		}
	}
	inc.pend = newCellDelta(space.Size() * k)
	return nil
}

// rebuildNodes rederives every subset marginal from its parent along the
// lattice and clears the pending deltas; the parents are already rebuilt
// because nodeOrder runs decreasing popcount. mu must be held.
func (inc *incEngine) rebuildNodes() {
	for _, nd := range inc.nodeOrder {
		pt := inc.full
		if nd.parent != inc.fullMask {
			pt = inc.nodes[nd.parent].tab
		}
		t := nd.tab
		t.reset()
		k := t.k
		for pc, v := range pt.agg {
			if v == 0 {
				continue
			}
			g := pc / k
			y := pc - g*k
			gc := g/nd.dropDiv*nd.dropStride + g%nd.dropStride
			t.addCell(gc*k+y, v)
		}
		t.refresh()
		if nd.out != nil {
			nd.out.clear()
		}
	}
}

// laddersLocked propagates the pending deltas down the lattice and
// assembles one subset ladder, in SubsetNames order, per metric of ms
// with an extrema form, scored from each lattice node's cached extrema;
// the other metrics get nil. Each node folds only its parent's changed
// cells (two integer divisions per cell), so a warm call costs
// O(pending deltas × subsets) — independent of the lattice size. mu
// must be held; sync must have run.
func (inc *incEngine) laddersLocked(ms []core.Metric) ([][]core.SubsetMetric, error) {
	inc.full.refresh()
	for _, nd := range inc.nodeOrder {
		src := inc.pend
		if nd.parent != inc.fullMask {
			src = inc.nodes[nd.parent].out
		}
		t := nd.tab
		k := t.k
		for i := 0; i < src.n; i++ {
			pc := int(src.list[i])
			d := src.delta[pc]
			if d == 0 {
				continue
			}
			g := pc / k
			y := pc - g*k
			cc := (g/nd.dropDiv*nd.dropStride+g%nd.dropStride)*k + y
			t.addCell(cc, d)
			if nd.out != nil {
				nd.out.add(cc, d)
			}
		}
		t.refresh()
	}
	inc.pend.clear()
	for _, nd := range inc.nodeOrder {
		if nd.out != nil {
			nd.out.clear()
		}
	}

	out := make([][]core.SubsetMetric, len(ms))
	for j, m := range ms {
		if _, ok := m.(core.ExtremaMetric); ok {
			out[j] = make([]core.SubsetMetric, len(inc.subsetOrder))
		}
	}
	for i, names := range inc.subsetOrder {
		mask := 0
		for _, n := range names {
			a, _ := inc.m.space.AttrIndex(n)
			mask |= 1 << a
		}
		t, sp := inc.full, inc.m.space
		if mask != inc.fullMask {
			nd := inc.nodes[mask]
			t, sp = nd.tab, nd.sub
		}
		for j, m := range ms {
			em, ok := m.(core.ExtremaMetric)
			if !ok {
				continue
			}
			res, err := em.EvalExtrema(&t.ext)
			if err != nil {
				return nil, fmt.Errorf("stream: subset %v: metric %s: %w", names, m.Key(), err)
			}
			out[j][i] = core.SubsetMetric{Attrs: names, Result: res, Space: sp}
		}
	}
	return out, nil
}
