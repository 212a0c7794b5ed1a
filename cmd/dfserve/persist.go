package main

// The durability layer behind the monitor registry: every mutation of
// registry state — monitor create/delete, observe batches, plan
// installs, decide batches — is appended to an internal/wal log and
// fsynced (per the -fsync policy) BEFORE it is applied in memory and
// acknowledged, so a SIGKILL at any instant loses nothing a client was
// told succeeded. Periodic snapshots (one per -snapshot-interval WAL
// records) capture the full registry state — specs, bit-exact monitor
// engine states, installed plans, served shadow streams — so boot
// replays snapshot + WAL tail instead of the full history, and replayed
// segments are pruned.
//
// Failure policy: any WAL append/sync failure after the log's own
// bounded retries marks the server degraded — mutating endpoints return
// 503 and healthz reports "degraded" with the reason, while reads keep
// serving the last good state. A data dir that cannot be opened for
// writing at boot degrades the same way after a best-effort read-only
// recovery (snapshot + wal.Replay), so a broken disk demotes the node
// instead of silently dropping acknowledged observations.
//
// Locking protocol: observe, decide and plan install all write through
// registry.commit, which holds persistMu.RLock around append+apply;
// PUT/DELETE hold it exclusively (they swap whole entries and must not
// interleave with in-flight observes on the old entry); snapshot capture
// holds it exclusively so the captured (walSeq, state) pair is
// consistent. WAL order is apply order on
// replay: under concurrent ingest the live ticket order may differ from
// WAL order within the racing batches' reorder window — the same
// documented tolerance as live concurrency itself; sequential clients
// recover byte-identically.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	fairness "repro"
	"repro/internal/wal"
)

// Record types. The type byte leads every WAL record payload.
const (
	// recNoop pads the sequence space when a recovered snapshot covers
	// more records than the recovered log (a torn tail ate acked
	// records the snapshot had already absorbed).
	recNoop byte = iota
	recMonitorPut
	recMonitorDelete
	recObserve
	recPlanInstall
	recDecide
)

const defaultSnapshotInterval = 4096

// durability owns the WAL, the snapshot schedule, and the degraded
// flag. A nil *durability (no -data-dir) means the registry is purely
// in-memory, the pre-durability behavior.
type durability struct {
	dir          string
	log          *wal.Log // nil in read-only degraded mode
	snapInterval uint64

	// reason, when non-nil, is the sticky degradation cause: the server
	// serves reads only and refuses mutations with 503.
	reason atomic.Pointer[string]

	// snapMu serializes snapshot writes; lastSnap is the WAL seq the
	// newest snapshot covers.
	snapMu   sync.Mutex
	lastSnap atomic.Uint64
}

// degraded returns the degradation reason, or "" when healthy.
func (d *durability) degraded() string {
	if d == nil {
		return ""
	}
	if p := d.reason.Load(); p != nil {
		return *p
	}
	return ""
}

// degrade records the first degradation cause; later causes keep the
// original (the first failure explains the rest).
func (d *durability) degrade(reason string) {
	if d.reason.CompareAndSwap(nil, &reason) {
		log.Printf("dfserve: entering degraded read-only mode: %s", reason)
	}
}

// commit appends one record and makes it durable under the configured
// fsync policy. It refuses once the server is degraded, and any failure
// degrades it; either way the error is the 503 text every mutation
// answers, so the client does not believe the write stuck.
func (d *durability) commit(payload []byte) error {
	if reason := d.degraded(); reason != "" {
		return degradedError(reason)
	}
	if _, err := d.log.Append(payload); err != nil {
		d.degrade(fmt.Sprintf("wal append failed: %v", err))
		return degradedError(d.degraded())
	}
	if err := d.log.Sync(); err != nil {
		d.degrade(fmt.Sprintf("wal sync failed: %v", err))
		return degradedError(d.degraded())
	}
	return nil
}

func degradedError(reason string) error {
	return fmt.Errorf("server is in degraded read-only mode: %s", reason)
}

// guardMutation returns false (and writes the 503) when the registry
// has a store that can no longer accept writes.
func (r *registry) guardMutation(w http.ResponseWriter) bool {
	if reason := r.store.degraded(); reason != "" {
		writeError(w, http.StatusServiceUnavailable, degradedError(reason))
		return false
	}
	return true
}

// commit is the one write path of observe, decide and plan install.
// Under persistMu held shared, so that a snapshot sees both or neither,
// it checks that e is still the registered entry (409), commits the
// record to the WAL (503 once degraded), and then applies the mutation
// in memory (422 if that fails). Without a store it only applies, and
// record is never called. It returns 0, or the HTTP status for the
// error; a record that cannot be encoded is a 500.
func (r *registry) commit(e *monitorEntry, record func() ([]byte, error), apply func() error) (int, error) {
	if r.store != nil {
		rec, err := record()
		if err != nil {
			return http.StatusInternalServerError, err
		}
		r.persistMu.RLock()
		defer r.persistMu.RUnlock()
		if cur, still := r.lookup(e.id); !still || cur != e {
			return http.StatusConflict, fmt.Errorf("monitor %q was concurrently replaced; retry", e.id)
		}
		if err := r.store.commit(rec); err != nil {
			return http.StatusServiceUnavailable, err
		}
	}
	if err := apply(); err != nil {
		return http.StatusUnprocessableEntity, err
	}
	return 0, nil
}

// commitSwap commits the record of a PUT or DELETE, which swap whole
// entries and so call it with persistMu held exclusively. It shares
// commit's WAL step and 503 error; without a store it does nothing.
func (r *registry) commitSwap(kind byte, v any) error {
	if r.store == nil {
		return nil
	}
	rec, err := encodeJSONRecord(kind, v)
	if err != nil {
		return err
	}
	return r.store.commit(rec)
}

// ---- record encoding ----

// putRecord / deleteRecord / planRecord are the JSON-bodied control
// records; observe and decide use a compact binary form (the hot path).
type putRecord struct {
	ID   string      `json:"id"`
	Spec monitorSpec `json:"spec"`
}

type deleteRecord struct {
	ID string `json:"id"`
}

type planRecord struct {
	ID          string            `json:"id"`
	Version     int               `json:"version"`
	AutoRefresh bool              `json:"auto_refresh"`
	Spec        repairOptionsSpec `json:"spec"`
	Plan        json.RawMessage   `json:"plan"`
	Tickets     uint64            `json:"tickets"`
}

func encodeJSONRecord(kind byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append([]byte{kind}, body...), nil
}

// record renders the plan as a planRecord's JSON: the body of a
// plan-install WAL record and of a snapshot's plan entry.
func (lp *livePlan) record(id string) ([]byte, error) {
	planJSON, err := json.Marshal(lp.plan)
	if err != nil {
		return nil, fmt.Errorf("encoding plan: %w", err)
	}
	return json.Marshal(planRecord{
		ID:          id,
		Version:     lp.version,
		AutoRefresh: lp.autoRefresh,
		Spec:        lp.spec,
		Plan:        planJSON,
		Tickets:     lp.tickets.Load(),
	})
}

func encodeObserveRecord(id string, groups, outcomes []int) []byte {
	buf := make([]byte, 0, 16+len(id)+4*len(groups))
	buf = append(buf, recObserve)
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	buf = append(buf, id...)
	buf = binary.AppendUvarint(buf, uint64(len(groups)))
	for i := range groups {
		buf = binary.AppendUvarint(buf, uint64(groups[i]))
		buf = binary.AppendUvarint(buf, uint64(outcomes[i]))
	}
	return buf
}

// encodeObserveRecordFromBatch builds the same record as
// encodeObserveRecord from an already-encoded application/x-df-batch
// body: the wire framing after the record's [kind][id] header IS the
// batch framing, so the client's bytes are spliced in verbatim — the
// binary observe path commits to the WAL without re-encoding. The
// caller must have validated the batch first.
func encodeObserveRecordFromBatch(id string, batch []byte) []byte {
	buf := make([]byte, 0, 16+len(id)+len(batch))
	buf = append(buf, recObserve)
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	buf = append(buf, id...)
	return append(buf, batch...)
}

func encodeDecideRecord(id string, ticket uint64, groups, raw, repaired []int) []byte {
	buf := make([]byte, 0, 24+len(id)+6*len(groups))
	buf = append(buf, recDecide)
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	buf = append(buf, id...)
	buf = binary.AppendUvarint(buf, ticket)
	buf = binary.AppendUvarint(buf, uint64(len(groups)))
	for i := range groups {
		buf = binary.AppendUvarint(buf, uint64(groups[i]))
		buf = binary.AppendUvarint(buf, uint64(raw[i]))
		buf = binary.AppendUvarint(buf, uint64(repaired[i]))
	}
	return buf
}

// recReader decodes the binary record forms with bounds checking.
type recReader struct {
	buf []byte
	off int
}

func (r *recReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// id decodes a record's uvarint-length-prefixed monitor id.
func (r *recReader) id() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	return r.str(n)
}

func (r *recReader) str(n uint64) (string, error) {
	if n > uint64(len(r.buf)-r.off) {
		return "", fmt.Errorf("truncated string at offset %d", r.off)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// pairs bounds a decoded element count by the bytes remaining in the
// record (each element is at least one byte per field), so a
// CRC-valid but hand-corrupted record cannot force a huge allocation.
func (r *recReader) pairs(n uint64) error {
	if n > uint64(len(r.buf)-r.off) {
		return fmt.Errorf("record claims %d elements in %d bytes", n, len(r.buf)-r.off)
	}
	return nil
}

// ---- apply (replay) ----

// applyRecord applies one WAL record to the in-memory registry during
// recovery. It mirrors exactly what the handlers did after their
// original append; any failure means the log does not match this
// server's configuration (or was tampered with) and the caller
// degrades.
func (r *registry) applyRecord(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("empty record")
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case recNoop:
		return nil
	case recMonitorPut:
		var rec putRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("put record: %w", err)
		}
		mon, watch, err := rec.Spec.build(r.cfg.maxMonitorCells)
		if err != nil {
			return fmt.Errorf("rebuilding monitor %q: %w", rec.ID, err)
		}
		r.monitors[rec.ID] = &monitorEntry{id: rec.ID, cfg: rec.Spec, mon: mon, watch: watch}
		return nil
	case recMonitorDelete:
		var rec deleteRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("delete record: %w", err)
		}
		delete(r.monitors, rec.ID)
		return nil
	case recObserve:
		rr := &recReader{buf: body}
		id, err := rr.id()
		if err != nil {
			return fmt.Errorf("observe record: %w", err)
		}
		tail := body[rr.off:]
		n, off, err := binaryBatchLen(tail)
		if err != nil {
			return fmt.Errorf("observe record: %w", err)
		}
		groups, outcomes := make([]int, n), make([]int, n)
		if err := decodeBinaryBatch(tail, off, groups, outcomes); err != nil {
			return fmt.Errorf("observe record: %w", err)
		}
		e, ok := r.monitors[id]
		if !ok {
			return fmt.Errorf("observe record for unknown monitor %q", id)
		}
		// Replay through ObserveBatch, not the watch: alerts are
		// transient responses, already delivered; only the counts and
		// the ticket clock must advance.
		return e.mon.ObserveBatch(groups, outcomes)
	case recPlanInstall:
		var rec planRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return fmt.Errorf("plan record: %w", err)
		}
		e, ok := r.monitors[rec.ID]
		if !ok {
			return fmt.Errorf("plan record for unknown monitor %q", rec.ID)
		}
		return e.installPlanFromRecord(&rec, r.cfg.maxMonitorCells)
	case recDecide:
		rr := &recReader{buf: body}
		id, err := rr.id()
		if err != nil {
			return fmt.Errorf("decide record: %w", err)
		}
		ticket, err := rr.uvarint()
		if err != nil {
			return fmt.Errorf("decide record: %w", err)
		}
		n, err := rr.uvarint()
		if err != nil {
			return fmt.Errorf("decide record: %w", err)
		}
		if err := rr.pairs(n); err != nil {
			return fmt.Errorf("decide record: %w", err)
		}
		groups := make([]int, n)
		raw := make([]int, n)
		repaired := make([]int, n)
		for i := range groups {
			g, err := rr.uvarint()
			if err != nil {
				return fmt.Errorf("decide record: %w", err)
			}
			rw, err := rr.uvarint()
			if err != nil {
				return fmt.Errorf("decide record: %w", err)
			}
			rp, err := rr.uvarint()
			if err != nil {
				return fmt.Errorf("decide record: %w", err)
			}
			groups[i], raw[i], repaired[i] = int(g), int(rw), int(rp)
		}
		e, ok := r.monitors[id]
		if !ok {
			return fmt.Errorf("decide record for unknown monitor %q", id)
		}
		lp := e.live.Load()
		served := e.served.Load()
		if lp == nil || served == nil {
			return fmt.Errorf("decide record for monitor %q with no installed plan", id)
		}
		// The record carries both streams' decisions, so replay does
		// not re-run the applier — only the counts and ticket clocks
		// move, exactly as the live handler moved them. ObserveBatch
		// checks each column against its stream's shape.
		if err := e.mon.ObserveBatch(groups, raw); err != nil {
			return fmt.Errorf("decide record raw stream: %w", err)
		}
		if err := served.ObserveBatch(groups, repaired); err != nil {
			return fmt.Errorf("decide record served stream: %w", err)
		}
		if end := ticket + n; end > lp.tickets.Load() {
			lp.tickets.Store(end)
		}
		return nil
	}
	return fmt.Errorf("unknown record type %d", kind)
}

// installPlanFromRecord rebuilds an installed plan (and the served
// shadow monitor, if absent) from a plan record or snapshot entry.
func (e *monitorEntry) installPlanFromRecord(rec *planRecord, maxCells int) error {
	if e.served.Load() == nil {
		sv, _, err := e.cfg.build(maxCells)
		if err != nil {
			return fmt.Errorf("rebuilding served stream for %q: %w", rec.ID, err)
		}
		e.served.Store(sv)
	}
	var plan fairness.RepairPlan
	if err := json.Unmarshal(rec.Plan, &plan); err != nil {
		return fmt.Errorf("plan document for %q: %w", rec.ID, err)
	}
	app, err := plan.Applier()
	if err != nil {
		return fmt.Errorf("compiling plan for %q: %w", rec.ID, err)
	}
	lp := &livePlan{
		version:     rec.Version,
		autoRefresh: rec.AutoRefresh,
		spec:        rec.Spec,
		plan:        &plan,
		app:         app,
	}
	lp.tickets.Store(rec.Tickets)
	e.live.Store(lp)
	return nil
}

// ---- snapshots ----

// Snapshot payload layout (inside wal.WriteSnapshot's CRC frame):
//
//	magic "DFS1"
//	uvarint monitor count, then per monitor in id order:
//	  uvarint len(id), id
//	  uvarint len(spec JSON), spec JSON
//	  uvarint len(raw state), raw monitor WriteState bytes
//	  byte hasServed; if 1: uvarint len, served WriteState bytes
//	  byte hasPlan;   if 1: uvarint len, planRecord JSON
const snapshotMagic = "DFS1"

// captureLocked serializes the whole registry. persistMu must be held
// exclusively, so no observes are in flight and every monitor's state
// is a consistent point in ticket time.
func (r *registry) captureLocked() ([]byte, error) {
	r.mu.RLock()
	ids := make([]string, 0, len(r.monitors))
	for id := range r.monitors {
		ids = append(ids, id)
	}
	entries := make([]*monitorEntry, len(ids))
	sort.Strings(ids)
	for i, id := range ids {
		entries[i] = r.monitors[id]
	}
	r.mu.RUnlock()

	buf := bytes.NewBuffer(make([]byte, 0, 1<<14))
	buf.WriteString(snapshotMagic)
	writeUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		writeUvarint(buf, uint64(len(e.id)))
		buf.WriteString(e.id)
		spec, err := json.Marshal(e.cfg)
		if err != nil {
			return nil, fmt.Errorf("capturing %q spec: %w", e.id, err)
		}
		writeUvarint(buf, uint64(len(spec)))
		buf.Write(spec)

		var state bytes.Buffer
		if err := e.mon.WriteState(&state); err != nil {
			return nil, fmt.Errorf("capturing %q state: %w", e.id, err)
		}
		writeUvarint(buf, uint64(state.Len()))
		buf.Write(state.Bytes())

		if sv := e.served.Load(); sv != nil {
			buf.WriteByte(1)
			var svState bytes.Buffer
			if err := sv.WriteState(&svState); err != nil {
				return nil, fmt.Errorf("capturing %q served state: %w", e.id, err)
			}
			writeUvarint(buf, uint64(svState.Len()))
			buf.Write(svState.Bytes())
		} else {
			buf.WriteByte(0)
		}

		if lp := e.live.Load(); lp != nil {
			rec, err := lp.record(e.id)
			if err != nil {
				return nil, fmt.Errorf("capturing %q plan record: %w", e.id, err)
			}
			buf.WriteByte(1)
			writeUvarint(buf, uint64(len(rec)))
			buf.Write(rec)
		} else {
			buf.WriteByte(0)
		}
	}
	return buf.Bytes(), nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// restoreSnapshot rebuilds the registry from a snapshot payload. Called
// only during boot, before the server accepts traffic.
func (r *registry) restoreSnapshot(payload []byte) error {
	rr := &recReader{buf: payload}
	magic, err := rr.str(uint64(len(snapshotMagic)))
	if err != nil || magic != snapshotMagic {
		return fmt.Errorf("snapshot: bad magic")
	}
	count, err := rr.uvarint()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if count > uint64(len(payload)) {
		return fmt.Errorf("snapshot claims %d monitors in %d bytes", count, len(payload))
	}
	blob := func(what string) ([]byte, error) {
		n, err := rr.uvarint()
		if err != nil {
			return nil, fmt.Errorf("snapshot %s: %w", what, err)
		}
		if n > uint64(len(rr.buf)-rr.off) {
			return nil, fmt.Errorf("snapshot %s: truncated", what)
		}
		b := rr.buf[rr.off : rr.off+int(n)]
		rr.off += int(n)
		return b, nil
	}
	for i := uint64(0); i < count; i++ {
		idb, err := blob("id")
		if err != nil {
			return err
		}
		id := string(idb)
		specJSON, err := blob("spec")
		if err != nil {
			return err
		}
		var spec monitorSpec
		if err := json.Unmarshal(specJSON, &spec); err != nil {
			return fmt.Errorf("snapshot monitor %q spec: %w", id, err)
		}
		mon, watch, err := spec.build(r.cfg.maxMonitorCells)
		if err != nil {
			return fmt.Errorf("snapshot monitor %q: %w", id, err)
		}
		state, err := blob("state")
		if err != nil {
			return err
		}
		if err := mon.ReadState(bytes.NewReader(state)); err != nil {
			return fmt.Errorf("snapshot monitor %q: %w", id, err)
		}
		e := &monitorEntry{id: id, cfg: spec, mon: mon, watch: watch}

		hasServed, err := rr.uvarint()
		if err != nil {
			return fmt.Errorf("snapshot monitor %q: %w", id, err)
		}
		if hasServed == 1 {
			svState, err := blob("served state")
			if err != nil {
				return err
			}
			sv, _, err := spec.build(r.cfg.maxMonitorCells)
			if err != nil {
				return fmt.Errorf("snapshot monitor %q served: %w", id, err)
			}
			if err := sv.ReadState(bytes.NewReader(svState)); err != nil {
				return fmt.Errorf("snapshot monitor %q served: %w", id, err)
			}
			e.served.Store(sv)
		} else if hasServed != 0 {
			return fmt.Errorf("snapshot monitor %q: bad served flag %d", id, hasServed)
		}

		hasPlan, err := rr.uvarint()
		if err != nil {
			return fmt.Errorf("snapshot monitor %q: %w", id, err)
		}
		if hasPlan == 1 {
			recJSON, err := blob("plan record")
			if err != nil {
				return err
			}
			var rec planRecord
			if err := json.Unmarshal(recJSON, &rec); err != nil {
				return fmt.Errorf("snapshot monitor %q plan: %w", id, err)
			}
			// A plan never exists without the served stream, which the
			// snapshot restored above; installPlanFromRecord keeps it.
			if err := e.installPlanFromRecord(&rec, r.cfg.maxMonitorCells); err != nil {
				return err
			}
		} else if hasPlan != 0 {
			return fmt.Errorf("snapshot monitor %q: bad plan flag %d", id, hasPlan)
		}
		r.monitors[id] = e
	}
	if rr.off != len(rr.buf) {
		return fmt.Errorf("snapshot: %d trailing bytes", len(rr.buf)-rr.off)
	}
	return nil
}

// maybeSnapshot writes a snapshot once -snapshot-interval records
// arrived since the last one. Called after mutations, outside persistMu.
func (r *registry) maybeSnapshot() {
	if d := r.store; d != nil && d.degraded() == "" {
		r.snapshot(d.snapInterval)
	}
}

// closeStore runs the clean-shutdown sequence: a final snapshot when
// any record arrived since the last one (so the next boot replays
// nothing) and a synced WAL close. A degraded server writes no final
// snapshot: its memory can hold what its log never recorded, such as
// the decide tickets a batch refused with a 503 claimed, so its next
// boot recovers from the log alone, as after an abrupt stop.
func (r *registry) closeStore() {
	d := r.store
	if d == nil || d.log == nil {
		return
	}
	if d.degraded() == "" {
		r.snapshot(1)
	}
	if err := d.log.Close(); err != nil {
		log.Printf("dfserve: wal close: %v", err)
	}
}

// snapshot captures and persists one snapshot when at least min
// records arrived since the last one, then prunes the WAL segments it
// covers. Capture stops the world (persistMu exclusive); the file write
// happens outside that lock, under snapMu.
func (r *registry) snapshot(min uint64) {
	d := r.store
	if d.log.Seq()-d.lastSnap.Load() < min {
		return
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if d.log.Seq()-d.lastSnap.Load() < min {
		return // another goroutine snapshotted while we waited
	}

	r.persistMu.Lock()
	seq := d.log.Seq()
	payload, err := r.captureLocked()
	r.persistMu.Unlock()
	if err != nil {
		log.Printf("dfserve: snapshot capture failed: %v", err)
		return
	}
	if err := wal.WriteSnapshot(d.dir, seq, payload); err != nil {
		log.Printf("dfserve: snapshot write failed: %v", err)
		return
	}
	d.lastSnap.Store(seq)
	if err := d.log.PruneTo(seq); err != nil {
		log.Printf("dfserve: wal prune failed: %v", err)
	}
}

// ---- boot ----

// openStore opens (or degrades) the durability layer and rebuilds the
// registry: newest valid snapshot first, then the WAL tail after it.
// Every failure path ends in a usable registry — possibly empty,
// possibly read-only — never a crash loop.
func (r *registry) openStore(dataDir string, policy wal.SyncPolicy, snapInterval int) {
	d := &durability{dir: dataDir, snapInterval: uint64(snapInterval)}
	if d.snapInterval == 0 {
		d.snapInterval = defaultSnapshotInterval
	}
	r.store = d

	lg, err := wal.Open(dataDir, wal.WithSyncPolicy(policy))
	if err != nil {
		// The dir is unusable for writing (not a directory, wrong
		// permissions, unrecoverable segment chain). Recover what the
		// read path can and serve it read-only.
		d.degrade(fmt.Sprintf("opening wal in %s: %v", dataDir, err))
		r.recoverReadOnly(dataDir)
		return
	}
	if rec := lg.Recovery(); rec.Truncated {
		log.Printf("dfserve: wal recovery truncated the log: %s (%d bytes, %d segments dropped; %d records survive)",
			rec.Reason, rec.TruncatedBytes, rec.DroppedSegments, rec.Records)
	}
	d.log = lg

	snapSeq, err := r.loadSnapshot(dataDir)
	if err != nil {
		d.degrade(err.Error())
		return
	}
	d.lastSnap.Store(snapSeq)

	res, err := wal.Replay(dataDir, snapSeq, func(seq uint64, payload []byte) error {
		return r.applyRecord(payload)
	})
	if err != nil {
		d.degrade(fmt.Sprintf("replaying wal: %v", err))
		return
	}
	if res.Records > 0 || snapSeq > 0 {
		log.Printf("dfserve: recovered %d monitors from snapshot seq %d + %d wal records",
			len(r.monitors), snapSeq, res.Records)
	}
	// A torn tail can eat records the snapshot had already absorbed,
	// leaving the log's sequence behind the snapshot's. Pad with noops
	// so fresh appends land after the snapshot's coverage — otherwise
	// the next boot's replay-after-snapshot would skip them.
	for lg.Seq() < snapSeq {
		if _, err := lg.Append([]byte{recNoop}); err != nil {
			d.degrade(fmt.Sprintf("padding wal to snapshot seq: %v", err))
			return
		}
	}
	if err := lg.Sync(); err != nil {
		d.degrade(fmt.Sprintf("wal sync at boot: %v", err))
	}
}

// loadSnapshot restores the newest valid snapshot, returning the WAL
// seq it covers (0 when none exists).
func (r *registry) loadSnapshot(dataDir string) (uint64, error) {
	snapSeq, payload, ok, err := wal.LatestSnapshot(dataDir)
	if err != nil {
		return 0, fmt.Errorf("loading snapshot: %v", err)
	}
	if !ok {
		return 0, nil
	}
	if err := r.restoreSnapshot(payload); err != nil {
		return 0, fmt.Errorf("restoring snapshot seq %d: %v", snapSeq, err)
	}
	return snapSeq, nil
}

// recoverReadOnly is the degraded boot path: the WAL cannot be opened
// for writing, but the snapshot and log bytes may still be readable.
// Serve whatever recovers.
func (r *registry) recoverReadOnly(dataDir string) {
	snapSeq, err := r.loadSnapshot(dataDir)
	if err != nil {
		log.Printf("dfserve: read-only recovery: %v", err)
		return
	}
	res, err := wal.Replay(dataDir, snapSeq, func(seq uint64, payload []byte) error {
		return r.applyRecord(payload)
	})
	if err != nil {
		log.Printf("dfserve: read-only recovery stopped: %v", err)
		return
	}
	log.Printf("dfserve: read-only recovery: %d monitors from snapshot seq %d + %d wal records",
		len(r.monitors), snapSeq, res.Records)
}
