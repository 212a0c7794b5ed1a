package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Monitor state serialization: the bit-exact dump-and-restore behind
// dfserve's snapshot recovery. WriteState captures the engine's raw
// per-shard state — tickets, decay bases, bucket epochs, and cells as
// raw IEEE-754 bits — and ReadState rebuilds an engine that is
// indistinguishable from the one that was saved: the same observations
// replayed on top of a restored monitor produce byte-identical reports,
// which is what the crash-recovery acceptance test asserts.
//
// The format is deliberately engine-shaped rather than a merged
// snapshot: a merged core.Counts would lose the per-shard decay bases
// and bucket epochs, so a restored exponential monitor would drift from
// the original on the very next observation, and a restored window
// monitor could not evict buckets correctly.
//
// Layout (all integers little-endian; "uvarint"/"varint" are the
// encoding/binary varint encodings):
//
//	magic "DFM1"
//	policy: kind byte (1 exponential, 2 tumbling, 3 sliding) + params
//	        (exponential: 8-byte float64 bits of HalfLife;
//	         tumbling: uvarint Window;
//	         sliding: uvarint Window, uvarint Buckets)
//	alpha:  8-byte float64 bits
//	uvarint group count, uvarint outcome count
//	uvarint shard count (as resolved at capture time)
//	uvarint ticket high-water mark
//	per shard, in order:
//	  exponential: varint basis, then groups×outcomes cells (8-byte
//	               float64 bits each)
//	  windowed:    per ring slot: varint epoch (−1 empty), then cells
//
// ReadState is paranoid: it only restores into a fresh monitor (no
// tickets drawn), requires the stored policy/alpha/shape to match the
// monitor's construction config exactly, and validates every structural
// invariant (shard count a power of two in [1, 1024], bases and epochs
// consistent with the ticket, cells finite and non-negative, window
// cells integral) before touching the monitor, so arbitrary bytes can
// corrupt nothing.
const stateMagic = "DFM1"

const (
	statePolicyExponential = 1
	statePolicyTumbling    = 2
	statePolicySliding     = 3
)

// WriteState serializes the monitor's full engine state to w. The
// caller must ensure no Observe/ObserveBatch calls are in flight:
// dfserve captures under its registry write lock, so a capture is a
// consistent point in ticket time.
func (m *Monitor) WriteState(w io.Writer) error {
	buf := make([]byte, 0, 1<<12)
	buf = append(buf, stateMagic...)
	switch p := m.policy.(type) {
	case Exponential:
		buf = append(buf, statePolicyExponential)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.HalfLife))
	case Tumbling:
		buf = append(buf, statePolicyTumbling)
		buf = binary.AppendUvarint(buf, uint64(p.Window))
	case Sliding:
		buf = append(buf, statePolicySliding)
		buf = binary.AppendUvarint(buf, uint64(p.Window))
		buf = binary.AppendUvarint(buf, uint64(p.Buckets))
	default:
		return fmt.Errorf("stream: WriteState: unknown policy %T", m.policy)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.alpha))
	buf = binary.AppendUvarint(buf, uint64(m.space.Size()))
	buf = binary.AppendUvarint(buf, uint64(len(m.outcomes)))
	buf = binary.AppendUvarint(buf, uint64(m.shards))
	buf = binary.AppendUvarint(buf, uint64(m.ticket.Load()))

	switch e := m.eng.(type) {
	case *expEngine:
		for i := range e.shards {
			s := &e.shards[i]
			s.mu.Lock()
			buf = binary.AppendVarint(buf, s.basis)
			buf = appendCells(buf, s.counts.Cells())
			s.mu.Unlock()
		}
	case *winEngine:
		for i := range e.shards {
			s := &e.shards[i]
			s.mu.Lock()
			for j := range s.ring {
				b := &s.ring[j]
				buf = binary.AppendVarint(buf, b.epoch)
				buf = appendCells(buf, b.counts.Cells())
			}
			s.mu.Unlock()
		}
	default:
		return fmt.Errorf("stream: WriteState: unknown engine %T", m.eng)
	}
	_, err := w.Write(buf)
	return err
}

// appendCells encodes a cell slice as raw float64 bits.
func appendCells(buf []byte, cells []float64) []byte {
	for _, c := range cells {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c))
	}
	return buf
}

// stateReader walks the serialized form with strict bounds checking.
type stateReader struct {
	buf []byte
	off int
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("stream: ReadState: "+format, args...)
	}
}

func (r *stateReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail("truncated state at offset %d", r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *stateReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *stateReader) byteVal() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *stateReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *stateReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// cells decodes one cell table into dst, rejecting non-finite or
// negative values (no valid engine state contains either) and, when
// whole is set, non-integral ones: window counts are sums of whole
// observations, and the incremental engine's exactness relies on it.
func (r *stateReader) cells(dst []float64, whole bool) {
	raw := r.bytes(8 * len(dst))
	if raw == nil {
		return
	}
	for i := range dst {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (whole && v != math.Trunc(v)) {
			r.fail("cell %d holds invalid count %v", i, v)
			return
		}
		dst[i] = v
	}
}

// ReadState restores a state previously produced by WriteState into m.
// m must be freshly constructed (no observations yet) with the same
// space shape, policy and alpha the state was captured under; the
// engine is rebuilt with the shard count recorded in the state, so a
// capture restores identically on a machine with different GOMAXPROCS.
// Malformed or mismatched input leaves the monitor untouched.
func (m *Monitor) ReadState(r io.Reader) error {
	if m.ticket.Load() != 0 {
		return fmt.Errorf("stream: ReadState: monitor has already ingested %d observations", m.ticket.Load())
	}
	raw, err := io.ReadAll(io.LimitReader(r, 1<<31))
	if err != nil {
		return fmt.Errorf("stream: ReadState: %w", err)
	}
	sr := &stateReader{buf: raw}
	if magic := sr.bytes(len(stateMagic)); magic == nil || string(magic) != stateMagic {
		return fmt.Errorf("stream: ReadState: bad magic (not a monitor state)")
	}

	var policy Policy
	switch kind := sr.byteVal(); kind {
	case statePolicyExponential:
		policy = Exponential{HalfLife: math.Float64frombits(sr.u64())}
	case statePolicyTumbling:
		policy = Tumbling{Window: int(sr.uvarint())}
	case statePolicySliding:
		w := int(sr.uvarint())
		b := int(sr.uvarint())
		policy = Sliding{Window: w, Buckets: b}
	default:
		if sr.err == nil {
			return fmt.Errorf("stream: ReadState: unknown policy kind %d", kind)
		}
	}
	alpha := math.Float64frombits(sr.u64())
	groups := sr.uvarint()
	outcomes := sr.uvarint()
	shards := sr.uvarint()
	ticket := sr.uvarint()
	if sr.err != nil {
		return sr.err
	}
	if policy != m.policy {
		return fmt.Errorf("stream: ReadState: state captured under policy %v, monitor configured with %v", policy, m.policy)
	}
	if math.Float64bits(alpha) != math.Float64bits(m.alpha) {
		return fmt.Errorf("stream: ReadState: state captured with alpha %v, monitor configured with %v", alpha, m.alpha)
	}
	if groups != uint64(m.space.Size()) || outcomes != uint64(len(m.outcomes)) {
		return fmt.Errorf("stream: ReadState: state shape %d×%d does not match monitor %d×%d",
			groups, outcomes, m.space.Size(), len(m.outcomes))
	}
	if shards < 1 || shards > 1024 || shards&(shards-1) != 0 {
		return fmt.Errorf("stream: ReadState: invalid shard count %d", shards)
	}
	if ticket > math.MaxInt64 {
		return fmt.Errorf("stream: ReadState: invalid ticket %d", ticket)
	}

	// Rebuild the engine at the recorded shard count and fill it from
	// the state; nothing is installed until the whole payload decodes
	// and validates.
	eng, err := m.policy.newEngine(m.space, m.outcomes, int(shards))
	if err != nil {
		return fmt.Errorf("stream: ReadState: %w", err)
	}
	switch e := eng.(type) {
	case *expEngine:
		for i := range e.shards {
			s := &e.shards[i]
			basis := sr.varint()
			sr.cells(s.counts.Cells(), false)
			if sr.err != nil {
				return sr.err
			}
			if basis < 0 || basis > int64(ticket) {
				return fmt.Errorf("stream: ReadState: shard %d basis %d outside ticket range %d", i, basis, ticket)
			}
			s.basis = basis
		}
	case *winEngine:
		maxEpoch := int64(-1)
		if ticket > 0 {
			maxEpoch = (int64(ticket) - 1) / e.span
		}
		for i := range e.shards {
			s := &e.shards[i]
			for j := range s.ring {
				b := &s.ring[j]
				epoch := sr.varint()
				sr.cells(b.counts.Cells(), true)
				if sr.err != nil {
					return sr.err
				}
				if epoch != -1 {
					if epoch < 0 || epoch > maxEpoch {
						return fmt.Errorf("stream: ReadState: shard %d slot %d epoch %d outside [0, %d]", i, j, epoch, maxEpoch)
					}
					if epoch%int64(e.win) != int64(j) {
						return fmt.Errorf("stream: ReadState: shard %d epoch %d in wrong ring slot %d", i, epoch, j)
					}
				}
				b.epoch = epoch
			}
		}
	}
	if sr.off != len(sr.buf) {
		return fmt.Errorf("stream: ReadState: %d trailing bytes after state", len(sr.buf)-sr.off)
	}

	m.eng = eng
	m.shards = int(shards)
	m.ticket.Store(int64(ticket))

	// Incremental ε state is derived, never serialized (which is what
	// keeps this format byte-identical across the incremental engine's
	// existence): if a window monitor's consumer is already attached,
	// point it at the rebuilt engine, re-enable the shard logs, and
	// invalidate it so the next check rebuilds from the restored
	// authoritative counts.
	m.incMu.Lock()
	if e, ok := eng.(*winEngine); ok && m.inc != nil {
		e.enableDirty(m.inc.logCap)
		m.inc.rebind(e)
	}
	m.incMu.Unlock()
	return nil
}
