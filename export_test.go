package fairness

import "encoding/json"

// MarshalIndentPinned is the encoding/json form RenderJSON must match
// byte for byte: the indented encoding of the report with its schema
// version pinned.
func MarshalIndentPinned(r *Report) ([]byte, error) {
	return json.MarshalIndent(r.pinned(), "", "  ")
}

// IntervalMemoHits returns how many of m's reports reused the interval
// sections of an earlier report instead of drawing them.
func IntervalMemoHits(m *Monitor) int {
	m.memo.mu.Lock()
	defer m.memo.mu.Unlock()
	return m.memo.hits
}
