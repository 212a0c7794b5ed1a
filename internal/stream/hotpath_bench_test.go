package stream

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fairmetrics"
)

// BenchmarkHotPathIncrementalCheck asserts the //df:hotpath contract on
// the incremental delta-apply path — dirty-log record, drain,
// window-eviction deltas, the cached-extrema refresh, and ε plus the
// four extrema-form metric limits judged from those extrema — by running
// checked batched ingest in steady state: scripts/alloc_gate.sh fails
// unless it reports 0 allocs/op.
func BenchmarkHotPathIncrementalCheck(b *testing.B) {
	space := core.MustSpace(
		core.Attr{Name: "g", Values: []string{"a", "b", "c", "d"}},
		core.Attr{Name: "h", Values: []string{"0", "1"}},
	)
	m, err := New(space, []string{"no", "yes"}, Config{
		Policy: Sliding{Window: 4096, Buckets: 4},
		Alpha:  0.5,
		Shards: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Unreachable limits: every check evaluates all of them and none
	// allocates an alert.
	w, err := NewWatch(m, 50, 1,
		MetricThreshold{fairmetrics.WorstGap{}, 1},
		MetricThreshold{fairmetrics.WorstRatio{}, 0},
		MetricThreshold{fairmetrics.AlphaIntersectional{Alpha: 0.5}, 1},
		MetricThreshold{fairmetrics.DemographicParity{}, 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	groups := make([]int, batch)
	outcomes := make([]int, batch)
	for i := range groups {
		groups[i] = i % space.Size()
		outcomes[i] = (i / 3) % 2
	}
	// Warm once so lazy attachment is outside the measurement.
	if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.ObserveBatchChecked(groups, outcomes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathObserveBatch asserts the //df:hotpath contract on
// Monitor.ObserveBatch at the benchmark layer: the CI bench smoke
// parses every BenchmarkHotPath* line and fails unless it reports
// 0 allocs/op (scripts/alloc_gate.sh).
func BenchmarkHotPathObserveBatch(b *testing.B) {
	space := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b", "c", "d"}})
	m, err := NewMonitor(space, []string{"no", "yes"}, 10000, 0)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	groups := make([]int, batch)
	outcomes := make([]int, batch)
	for i := range groups {
		groups[i] = i % space.Size()
		outcomes[i] = (i / 3) % 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ObserveBatch(groups, outcomes); err != nil {
			b.Fatal(err)
		}
	}
}
