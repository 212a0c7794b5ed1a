package fairness

import (
	"math"
	"reflect"
	"slices"
	"sync"

	"repro/internal/core"
)

// drawConfig is every option that shapes a report's interval draws: the
// estimator alpha, the bootstrap's replicate count and level, the
// posterior's sample count, prior and level, and the seed. Worker counts
// are not among them, because draw i always uses substream (seed, i).
type drawConfig struct {
	alpha          float64
	bootstrapB     int
	bootstrapLevel float64
	credibleB      int
	credibleAlpha  float64
	credibleLevel  float64
	seed           uint64
}

// intervals holds a report's interval sections, ε's first and then one
// per requested metric. A slice is empty when the report did not request
// that engine.
type intervals struct {
	boot []BootstrapReport
	cred []CredibleReport
}

// setOn points rep's interval sections at iv's entries. rep.Metrics must
// already hold the requested metric sections.
func (iv intervals) setOn(rep *Report) {
	if len(iv.boot) > 0 {
		rep.Bootstrap = &iv.boot[0]
		for j := range iv.boot[1:] {
			rep.Metrics[j].Bootstrap = &iv.boot[j+1]
		}
	}
	if len(iv.cred) > 0 {
		rep.Credible = &iv.cred[0]
		for j := range iv.cred[1:] {
			rep.Metrics[j].Credible = &iv.cred[j+1]
		}
	}
}

// intervalMemo is a Monitor's one-entry memo of the interval sections of
// its last report that drew any (see Monitor.Audit). The entry is keyed
// by every input of the draws: the draw options, the metrics and the
// audited cells, compared bit for bit. The draws are a deterministic
// function of that key, so a report that finds its key here is
// byte-identical to one that draws again, and no event has to
// invalidate the entry.
type intervalMemo struct {
	mu      sync.Mutex
	draw    drawConfig
	metrics []core.Metric
	cells   []float64 // nil until the first store
	iv      intervals
	hits    int // reports served from the entry
}

// memoizable reports whether == can compare the metrics. A core.Metric
// is an immutable value, so equal values score every table alike; a
// value whose type == cannot compare (one holding a slice, say) would
// make == panic, and its reports are not memoized.
func memoizable(metrics []core.Metric) bool {
	for _, m := range metrics {
		if !reflect.ValueOf(m).Comparable() {
			return false
		}
	}
	return true
}

// load returns a copy of the entry's sections when it was drawn from
// exactly these inputs. A nil memo holds nothing.
func (m *intervalMemo) load(draw drawConfig, metrics []core.Metric, cells []float64) (intervals, bool) {
	if m == nil {
		return intervals{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cells == nil || m.draw != draw || !slices.Equal(m.metrics, metrics) || !sameBits(m.cells, cells) {
		return intervals{}, false
	}
	m.hits++
	return intervals{boot: slices.Clone(m.iv.boot), cred: slices.Clone(m.iv.cred)}, true
}

// store replaces the entry with sections drawn from these inputs,
// reusing the entry's buffers. A nil memo stores nothing.
func (m *intervalMemo) store(draw drawConfig, metrics []core.Metric, cells []float64, iv intervals) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.draw = draw
	m.metrics = append(m.metrics[:0], metrics...)
	m.cells = append(m.cells[:0], cells...)
	m.iv.boot = append(m.iv.boot[:0], iv.boot...)
	m.iv.cred = append(m.iv.cred[:0], iv.cred...)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
