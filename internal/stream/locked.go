package stream

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
)

// LockedMonitor is the retained pre-sharding implementation: one decayed
// strided table behind a single mutex. It exists as the comparison
// baseline for BenchmarkMonitorObserveParallel and as the sequential
// reference the sharded Monitor's equivalence tests check against. New
// code should use Monitor.
type LockedMonitor struct {
	mu       sync.Mutex
	space    *core.Space
	outcomes []string
	// counts are stored pre-scaled in one group-major strided slice:
	// cell values are multiplied by the running weight so an observation
	// is a single add; snapshots divide by weight.
	counts []float64
	weight float64
	decay  float64
	seen   int
	alpha  float64
	snap   *core.Counts
	cpt    *core.CPT
}

// NewLocked creates a mutex-guarded exponentially-decayed monitor with
// the same semantics as NewMonitor.
func NewLocked(space *core.Space, outcomes []string, halfLife float64, alpha float64) (*LockedMonitor, error) {
	if space == nil {
		return nil, fmt.Errorf("stream: nil space")
	}
	if len(outcomes) < 2 {
		return nil, fmt.Errorf("stream: need at least two outcomes")
	}
	if !(halfLife > 0) || math.IsInf(halfLife, 0) {
		return nil, fmt.Errorf("stream: half-life must be positive and finite, got %v", halfLife)
	}
	if alpha < 0 {
		return nil, fmt.Errorf("stream: negative alpha %v", alpha)
	}
	snap, err := core.NewCounts(space, outcomes)
	if err != nil {
		return nil, err
	}
	cpt, err := core.NewCPT(space, outcomes)
	if err != nil {
		return nil, err
	}
	return &LockedMonitor{
		space:    space,
		outcomes: append([]string(nil), outcomes...),
		counts:   make([]float64, space.Size()*len(outcomes)),
		weight:   1,
		decay:    math.Exp2(-1 / halfLife),
		alpha:    alpha,
		snap:     snap,
		cpt:      cpt,
	}, nil
}

// Space returns the protected-attribute space.
func (m *LockedMonitor) Space() *core.Space { return m.space }

// Outcomes returns a copy of the outcome labels.
func (m *LockedMonitor) Outcomes() []string { return append([]string(nil), m.outcomes...) }

// Observe records one decision under the global lock.
func (m *LockedMonitor) Observe(group, outcome int) error {
	if group < 0 || group >= m.space.Size() {
		return fmt.Errorf("stream: group %d out of range", group)
	}
	if outcome < 0 || outcome >= len(m.outcomes) {
		return fmt.Errorf("stream: outcome %d out of range", outcome)
	}
	m.mu.Lock()
	m.observeLocked(group, outcome)
	m.mu.Unlock()
	return nil
}

// ObserveBatch records a batch of decisions under one lock acquisition.
func (m *LockedMonitor) ObserveBatch(groups, outcomes []int) error {
	if len(groups) != len(outcomes) {
		return fmt.Errorf("stream: ObserveBatch got %d groups vs %d outcomes", len(groups), len(outcomes))
	}
	size := m.space.Size()
	for i := range groups {
		if groups[i] < 0 || groups[i] >= size {
			return fmt.Errorf("stream: batch element %d: group %d out of range", i, groups[i])
		}
		if outcomes[i] < 0 || outcomes[i] >= len(m.outcomes) {
			return fmt.Errorf("stream: batch element %d: outcome %d out of range", i, outcomes[i])
		}
	}
	m.mu.Lock()
	for i := range groups {
		m.observeLocked(groups[i], outcomes[i])
	}
	m.mu.Unlock()
	return nil
}

func (m *LockedMonitor) observeLocked(group, outcome int) {
	m.weight /= m.decay
	m.counts[group*len(m.outcomes)+outcome] += m.weight
	m.seen++
	if m.weight > 1e12 {
		inv := 1 / m.weight
		for i := range m.counts {
			m.counts[i] *= inv
		}
		m.weight = 1
	}
}

// Seen returns the number of observations so far.
func (m *LockedMonitor) Seen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seen
}

// EffectiveCount returns the decayed total mass.
func (m *LockedMonitor) EffectiveCount() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	for _, v := range m.counts {
		sum += v
	}
	return sum / m.weight
}

// SnapshotInto overwrites dst with the decayed counts.
func (m *LockedMonitor) SnapshotInto(dst *core.Counts) error {
	if dst == nil {
		return fmt.Errorf("stream: nil snapshot destination")
	}
	cells := dst.Cells()
	if len(cells) != len(m.counts) {
		return fmt.Errorf("stream: snapshot destination shape mismatch")
	}
	m.mu.Lock()
	inv := 1 / m.weight
	for i, v := range m.counts {
		cells[i] = v * inv
	}
	m.mu.Unlock()
	return nil
}

// Snapshot returns the decayed counts as a caller-owned core.Counts.
func (m *LockedMonitor) Snapshot() (*core.Counts, error) {
	out, err := core.NewCounts(m.space, m.outcomes)
	if err != nil {
		return nil, err
	}
	if err := m.SnapshotInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// Epsilon reports the current decayed ε estimate using the monitor's
// reusable buffers.
func (m *LockedMonitor) Epsilon() (core.EpsilonResult, error) {
	if err := m.SnapshotInto(m.snap); err != nil {
		return core.EpsilonResult{}, err
	}
	if m.alpha > 0 {
		if err := m.snap.SmoothedInto(m.cpt, m.alpha, false); err != nil {
			return core.EpsilonResult{}, err
		}
	} else {
		if err := m.snap.EmpiricalInto(m.cpt); err != nil {
			return core.EpsilonResult{}, err
		}
	}
	return core.Epsilon(m.cpt)
}
