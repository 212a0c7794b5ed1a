package stream

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func stateTestSpace(t *testing.T) *core.Space {
	t.Helper()
	space, err := core.NewSpace(
		core.Attr{Name: "g", Values: []string{"a", "b", "c"}},
		core.Attr{Name: "r", Values: []string{"x", "y"}},
	)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return space
}

// ingestMixed drives n observations through singles and batches with a
// deterministic pattern.
func ingestMixed(t *testing.T, m *Monitor, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	size := m.space.Size()
	k := len(m.outcomes)
	i := 0
	for i < n {
		if rng.Intn(3) == 0 {
			if err := m.Observe(rng.Intn(size), rng.Intn(k)); err != nil {
				t.Fatalf("Observe: %v", err)
			}
			i++
			continue
		}
		batch := rng.Intn(9) + 1
		if batch > n-i {
			batch = n - i
		}
		groups := make([]int, batch)
		outcomes := make([]int, batch)
		for j := range groups {
			groups[j] = rng.Intn(size)
			outcomes[j] = rng.Intn(k)
		}
		if err := m.ObserveBatch(groups, outcomes); err != nil {
			t.Fatalf("ObserveBatch: %v", err)
		}
		i += batch
	}
}

// stateOf captures a monitor's serialized state.
func stateOf(t *testing.T, m *Monitor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteState(&buf); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	return buf.Bytes()
}

func statePolicies() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"exponential", Config{Policy: Exponential{HalfLife: 50}, Alpha: 0.5, Shards: 4}},
		{"tumbling", Config{Policy: Tumbling{Window: 64}, Alpha: 0, Shards: 4}},
		{"sliding", Config{Policy: Sliding{Window: 60, Buckets: 4}, Alpha: 1, Shards: 4}},
	}
}

func TestStateRoundTripBitExact(t *testing.T) {
	for _, tc := range statePolicies() {
		t.Run(tc.name, func(t *testing.T) {
			space := stateTestSpace(t)
			outcomes := []string{"pos", "neg"}
			m, err := New(space, outcomes, tc.cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ingestMixed(t, m, 500, 7)
			state := stateOf(t, m)

			restored, err := New(space, outcomes, tc.cfg)
			if err != nil {
				t.Fatalf("New restored: %v", err)
			}
			if err := restored.ReadState(bytes.NewReader(state)); err != nil {
				t.Fatalf("ReadState: %v", err)
			}
			if restored.Seen() != m.Seen() {
				t.Fatalf("restored Seen = %d, want %d", restored.Seen(), m.Seen())
			}
			// A second capture of the restored monitor must be byte-identical:
			// state is preserved exactly, not approximately.
			if got := stateOf(t, restored); !bytes.Equal(got, state) {
				t.Fatal("re-captured state differs from the original capture")
			}
			// Snapshots must agree bit-for-bit.
			a, err := m.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			b, err := restored.Snapshot()
			if err != nil {
				t.Fatalf("restored Snapshot: %v", err)
			}
			ca, cb := a.Cells(), b.Cells()
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("cell %d: restored %v, original %v", i, cb[i], ca[i])
				}
			}
			// And the monitors must evolve identically: the same further
			// observations produce the same snapshot.
			ingestMixed(t, m, 300, 11)
			ingestMixed(t, restored, 300, 11)
			a2, _ := m.Snapshot()
			b2, _ := restored.Snapshot()
			ca2, cb2 := a2.Cells(), b2.Cells()
			for i := range ca2 {
				if ca2[i] != cb2[i] {
					t.Fatalf("post-restore cell %d: restored %v, original %v", i, cb2[i], ca2[i])
				}
			}
		})
	}
}

func TestStateRestoresAcrossShardCounts(t *testing.T) {
	space := stateTestSpace(t)
	outcomes := []string{"pos", "neg"}
	src, err := New(space, outcomes, Config{Policy: Exponential{HalfLife: 40}, Alpha: 0.5, Shards: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ingestMixed(t, src, 400, 3)
	state := stateOf(t, src)

	// The destination was built with a different shard count (as
	// happens when GOMAXPROCS differs across a restart); ReadState must
	// adopt the recorded count.
	dst, err := New(space, outcomes, Config{Policy: Exponential{HalfLife: 40}, Alpha: 0.5, Shards: 2})
	if err != nil {
		t.Fatalf("New dst: %v", err)
	}
	if err := dst.ReadState(bytes.NewReader(state)); err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	if dst.shards != 8 {
		t.Fatalf("restored shard count = %d, want the recorded 8", dst.shards)
	}
	if got := stateOf(t, dst); !bytes.Equal(got, state) {
		t.Fatal("state not preserved across differing construction shard counts")
	}
}

func TestReadStateRejectsMismatch(t *testing.T) {
	space := stateTestSpace(t)
	outcomes := []string{"pos", "neg"}
	src, err := New(space, outcomes, Config{Policy: Exponential{HalfLife: 50}, Alpha: 0.5, Shards: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ingestMixed(t, src, 100, 5)
	state := stateOf(t, src)

	fresh := func(cfg Config) *Monitor {
		m, err := New(space, outcomes, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return m
	}
	cases := []struct {
		name string
		m    *Monitor
	}{
		{"different half-life", fresh(Config{Policy: Exponential{HalfLife: 51}, Alpha: 0.5})},
		{"different policy kind", fresh(Config{Policy: Tumbling{Window: 50}, Alpha: 0.5})},
		{"different alpha", fresh(Config{Policy: Exponential{HalfLife: 50}, Alpha: 0.25})},
	}
	for _, tc := range cases {
		if err := tc.m.ReadState(bytes.NewReader(state)); err == nil {
			t.Errorf("%s: ReadState succeeded, want mismatch error", tc.name)
		}
	}

	// A monitor that has already ingested refuses restoration.
	used := fresh(Config{Policy: Exponential{HalfLife: 50}, Alpha: 0.5})
	if err := used.Observe(0, 0); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if err := used.ReadState(bytes.NewReader(state)); err == nil {
		t.Error("ReadState into a used monitor succeeded")
	}

	// A different outcome count is a shape mismatch.
	wide, err := New(space, []string{"pos", "neg", "defer"}, Config{Policy: Exponential{HalfLife: 50}, Alpha: 0.5})
	if err != nil {
		t.Fatalf("New wide: %v", err)
	}
	if err := wide.ReadState(bytes.NewReader(state)); err == nil {
		t.Error("ReadState across outcome shapes succeeded")
	}
}

func TestReadStateRejectsMalformedBytes(t *testing.T) {
	space := stateTestSpace(t)
	outcomes := []string{"pos", "neg"}
	for _, tc := range statePolicies() {
		t.Run(tc.name, func(t *testing.T) {
			src, err := New(space, outcomes, tc.cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ingestMixed(t, src, 200, 9)
			state := stateOf(t, src)

			fresh := func() *Monitor {
				m, err := New(space, outcomes, tc.cfg)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				return m
			}
			// Truncations at every prefix length must error, never panic,
			// and leave the monitor untouched.
			for _, cut := range []int{0, 1, 3, 4, 5, len(state) / 2, len(state) - 1} {
				m := fresh()
				if err := m.ReadState(bytes.NewReader(state[:cut])); err == nil {
					t.Errorf("ReadState of %d-byte prefix succeeded", cut)
				}
				if m.Seen() != 0 {
					t.Fatalf("failed ReadState mutated the monitor (Seen=%d)", m.Seen())
				}
			}
			// Trailing garbage is rejected.
			if err := fresh().ReadState(bytes.NewReader(append(append([]byte(nil), state...), 0xff))); err == nil {
				t.Error("ReadState with trailing bytes succeeded")
			}
			// Flipping bytes across the payload must never panic; cell-bit
			// flips that produce negative/NaN counts must be rejected (other
			// flips may legitimately decode to a different valid state —
			// that's the WAL CRC's job to catch, not ReadState's).
			for off := 0; off < len(state); off += 7 {
				mutated := append([]byte(nil), state...)
				mutated[off] ^= 0x81
				_ = fresh().ReadState(bytes.NewReader(mutated))
			}
			// Not-a-state inputs.
			for _, junk := range [][]byte{nil, []byte("x"), []byte("DFM1"), []byte("DFM2junkjunkjunk"), bytes.Repeat([]byte{0xff}, 64)} {
				if err := fresh().ReadState(bytes.NewReader(junk)); err == nil {
					t.Errorf("ReadState accepted junk %q", junk)
				}
			}
		})
	}
}

// TestReadStateRejectsFractionalWindowCounts: window counts are sums of
// whole observations, so a window state whose last cell reads 0.1 (the
// last live bucket then holds [0 1 1 0.1]) is malformed and must not
// restore.
func TestReadStateRejectsFractionalWindowCounts(t *testing.T) {
	space := core.MustSpace(core.Attr{Name: "g", Values: []string{"a", "b"}})
	outcomes := []string{"pos", "neg"}
	for _, pol := range []Policy{Tumbling{Window: 8}, Sliding{Window: 8, Buckets: 2}} {
		cfg := Config{Policy: pol, Shards: 1}
		src, err := New(space, outcomes, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := src.ObserveBatch([]int{0, 1, 0, 1, 0, 1}, []int{1, 0, 1, 0, 1, 0}); err != nil {
			t.Fatalf("ObserveBatch: %v", err)
		}
		state := stateOf(t, src)
		// The last cell of the state is the last cell of the last ring slot.
		binary.LittleEndian.PutUint64(state[len(state)-8:], math.Float64bits(0.1))
		dst, err := New(space, outcomes, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := dst.ReadState(bytes.NewReader(state)); err == nil {
			t.Errorf("%v: ReadState restored a fractional window count", pol)
		}
		if dst.Seen() != 0 || dst.EffectiveCount() != 0 {
			t.Errorf("%v: failed ReadState mutated the monitor (Seen=%d)", pol, dst.Seen())
		}
	}
}

func TestWindowStateEvictsCorrectlyAfterRestore(t *testing.T) {
	// A sliding window restored mid-stream must keep evicting buckets on
	// the original ticket schedule: drive the window fully past the
	// restore point and compare against an un-restored twin.
	space := stateTestSpace(t)
	outcomes := []string{"pos", "neg"}
	cfg := Config{Policy: Sliding{Window: 40, Buckets: 4}, Alpha: 0, Shards: 2}
	m, err := New(space, outcomes, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ingestMixed(t, m, 100, 21)
	state := stateOf(t, m)
	restored, err := New(space, outcomes, cfg)
	if err != nil {
		t.Fatalf("New restored: %v", err)
	}
	if err := restored.ReadState(bytes.NewReader(state)); err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	ingestMixed(t, m, 120, 22)
	ingestMixed(t, restored, 120, 22)
	a, _ := m.Snapshot()
	b, _ := restored.Snapshot()
	ca, cb := a.Cells(), b.Cells()
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("cell %d after eviction: restored %v, original %v", i, cb[i], ca[i])
		}
	}
	if a.Total() > 40 {
		t.Fatalf("sliding window holds %v mass, want <= 40", a.Total())
	}
}

func TestStateFormatIsStable(t *testing.T) {
	// Golden prefix: the header layout is a persistence format; byte
	// changes here break every snapshot on disk and must be deliberate.
	space := stateTestSpace(t)
	m, err := New(space, []string{"pos", "neg"}, Config{Policy: Tumbling{Window: 8}, Alpha: 0, Shards: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	state := stateOf(t, m)
	want := []byte{
		'D', 'F', 'M', '1', // magic
		2, 8, // tumbling, window 8
		0, 0, 0, 0, 0, 0, 0, 0, // alpha 0 bits
		6, 2, // 6 groups, 2 outcomes
		1, // 1 shard
		0, // ticket 0
	}
	if len(state) < len(want) || !bytes.Equal(state[:len(want)], want) {
		t.Fatalf("state header = %v, want prefix %v", state[:min(len(state), len(want))], want)
	}
}

func BenchmarkWriteState(b *testing.B) {
	space, err := core.NewSpace(
		core.Attr{Name: "g", Values: []string{"a", "b", "c", "d"}},
		core.Attr{Name: "r", Values: []string{"x", "y", "z"}},
	)
	if err != nil {
		b.Fatalf("NewSpace: %v", err)
	}
	m, err := New(space, []string{"pos", "neg"}, Config{Policy: Exponential{HalfLife: 100}, Alpha: 0.5, Shards: 8})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for i := 0; i < 10_000; i++ {
		if err := m.Observe(i%space.Size(), i%2); err != nil {
			b.Fatalf("Observe: %v", err)
		}
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := m.WriteState(&buf); err != nil {
			b.Fatalf("WriteState: %v", err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
