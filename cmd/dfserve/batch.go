package main

// The batch body reader shared by POST /v1/monitors/{id}/observe and
// /decide. Both endpoints take a batch of (group, outcome) index pairs
// in one of two wire forms, and both decode without allocating into
// pooled scratch: the body is read once, under the server's body cap,
// into a reused buffer and then decoded into reused index arrays.
//
//   - JSON, {"groups":[…],"outcomes":[…]} (decide: "decisions"), is
//     scanned by decodeJSONBatch, which accepts exactly the bodies that
//     encoding/json with DisallowUnknownFields would, minus two it used
//     to mis-ingest: a null array element (decoded as 0) and bytes after
//     the value (silently dropped). Observe's named "observations" form
//     carries label maps, is on no hot path, and is left to
//     encoding/json (decodeNamed).
//   - application/x-df-batch is a uvarint pair count followed by
//     count × (uvarint group, uvarint outcome). That framing is exactly
//     the WAL observe record's tail after its [kind][id] header
//     (persist.go), so the observe handler splices a binary body straight
//     into its durability record instead of re-encoding it.
//
// Both decoders are //df:hotpath functions, asserted at 0 allocs/op by
// scripts/alloc_gate.sh: their loops only index and compare.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// batchContentType selects the binary batch encoding on
// POST /v1/monitors/{id}/observe and /decide. Kept in sync with
// internal/loadgen.BinaryContentType (cross-checked by a test).
const batchContentType = "application/x-df-batch"

// isBinaryBatch reports whether the request declares the binary batch
// encoding. Parameters after ';' are tolerated and ignored.
func isBinaryBatch(req *http.Request) bool {
	ct := req.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == batchContentType
}

// bodyErrStatus maps a request-body error onto its HTTP status: 413
// when the -max-body-bytes cap tripped, 400 for anything else.
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeJSONBody decodes a JSON request body under the server's body
// cap, writing the error response itself. All JSON endpoints but the
// two batch endpoints share it, so an oversized body is a 413
// everywhere and malformed JSON a 400.
func decodeJSONBody(w http.ResponseWriter, req *http.Request, maxBody int64, v any, what string) bool {
	if err := decodeOne(http.MaxBytesReader(w, req.Body, maxBody), v); err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("invalid %s: %w", what, err))
		return false
	}
	return true
}

// decodeOne decodes exactly one JSON value from r into v with unknown
// fields rejected: anything but whitespace after the value is an error.
func decodeOne(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errJSONTrailing
		}
		return err
	}
	return nil
}

// batchForm names the keys of one batch endpoint's JSON body.
type batchForm struct {
	name   string // the endpoint, for error messages
	values []byte // key of the outcome column
	named  []byte // key of the named form; nil if the endpoint has none
}

var (
	jsonKeyGroups = []byte("groups")
	observeForm   = batchForm{name: "observe", values: []byte("outcomes"), named: []byte("observations")}
	decideForm    = batchForm{name: "decide", values: []byte("decisions")}
)

// batchScratch is one batch's reusable decode state: the raw body (kept
// because the observe handler splices a binary one into its WAL record)
// and the decoded index arrays.
type batchScratch struct {
	body         []byte
	groups       []int
	outcomes     []int
	observations []observation // observe's named form, decoded by decodeNamed
	binary       bool          // body is application/x-df-batch
	named        bool          // JSON body has observe's "observations" key
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func putBatchScratch(s *batchScratch) { batchPool.Put(s) }

// size gives both index arrays length n, reusing their storage.
func (s *batchScratch) size(n int) {
	if cap(s.groups) < n || cap(s.outcomes) < n {
		s.groups = make([]int, n)
		s.outcomes = make([]int, n)
		return
	}
	s.groups = s.groups[:n]
	s.outcomes = s.outcomes[:n]
}

// readBatch reads one observe or decide body, in either wire form, and
// decodes it, validating every index against the monitor's shape: a
// record must never be committed unless replaying it will succeed. On
// failure it writes the error response (413 for an oversized body, 400
// otherwise) and returns ok=false; on success the caller owns the
// scratch and must putBatchScratch it when done with the slices and
// body.
func readBatch(w http.ResponseWriter, req *http.Request, maxBody int64, form *batchForm, numGroups, numOutcomes int) (*batchScratch, bool) {
	s := batchPool.Get().(*batchScratch)
	body, err := readAllInto(s.body[:0], http.MaxBytesReader(w, req.Body, maxBody))
	s.body = body
	if err != nil {
		putBatchScratch(s)
		writeError(w, bodyErrStatus(err), fmt.Errorf("reading %s body: %w", form.name, err))
		return nil, false
	}
	if err := s.decode(isBinaryBatch(req), form, numGroups, numOutcomes); err != nil {
		putBatchScratch(s)
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return s, true
}

// decode decodes s.body in the given wire form into the index arrays
// and validates them against the monitor's shape. The binary decode
// bounds-checks inline; the JSON one decodes what encoding/json would
// and leaves the shape to validateBatch.
func (s *batchScratch) decode(binary bool, form *batchForm, numGroups, numOutcomes int) error {
	s.binary, s.named, s.observations = binary, false, nil
	if binary {
		n, off, err := binaryBatchLen(s.body)
		if err != nil {
			return err
		}
		s.size(n)
		if err := decodeBinaryBatch(s.body, off, s.groups, s.outcomes, numGroups, numOutcomes); err != nil {
			return fmt.Errorf("invalid batch body: %w", err)
		}
		return nil
	}
	s.size(jsonBatchCap(s.body))
	if off, err := decodeJSONBatch(s, form); err != nil {
		return fmt.Errorf("invalid %s body at offset %d: %w", form.name, off, err)
	}
	if s.named {
		if err := s.decodeNamed(); err != nil {
			return fmt.Errorf("invalid %s body: %w", form.name, err)
		}
	}
	return validateBatch(s.groups, s.outcomes, form, numGroups, numOutcomes)
}

// validateBatch bounds-checks decoded index arrays against the
// monitor's shape, before anything is committed to the WAL.
func validateBatch(groups, outcomes []int, form *batchForm, numGroups, numOutcomes int) error {
	if len(groups) != len(outcomes) {
		return fmt.Errorf("groups and %s arrays differ in length (%d vs %d)",
			form.values, len(groups), len(outcomes))
	}
	for i := range groups {
		if groups[i] < 0 || groups[i] >= numGroups {
			return fmt.Errorf("groups[%d] = %d outside space of %d groups", i, groups[i], numGroups)
		}
		if outcomes[i] < 0 || outcomes[i] >= numOutcomes {
			return fmt.Errorf("%s[%d] = %d outside %d outcomes", form.values, i, outcomes[i], numOutcomes)
		}
	}
	return nil
}

// observeRecord builds the batch's WAL observe record. A binary body is
// already in the record's framing, so its bytes are spliced in as they
// arrived; anything else is encoded from the index arrays.
func (s *batchScratch) observeRecord(id string, groups, outcomes []int) []byte {
	if s.binary {
		return encodeObserveRecordFromBatch(id, s.body)
	}
	return encodeObserveRecord(id, groups, outcomes)
}

// readAllInto is io.ReadAll into a reused buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// binaryBatchLen decodes the batch's leading pair count and returns it
// with the offset of the first pair. The count is bounded by the bytes
// actually present (each pair is at least two bytes), so a hostile
// header cannot force a huge scratch allocation.
func binaryBatchLen(body []byte) (n, off int, err error) {
	v, m := binary.Uvarint(body)
	if m <= 0 {
		return 0, 0, fmt.Errorf("invalid batch body: bad count header")
	}
	if v == 0 {
		return 0, 0, fmt.Errorf("empty batch")
	}
	if v > uint64(len(body)-m)/2 {
		return 0, 0, fmt.Errorf("invalid batch body: claims %d pairs in %d bytes", v, len(body)-m)
	}
	return int(v), m, nil
}

// Sentinel decode errors, allocated once: the hot decode loops must not
// format (fmt allocates; see the hotpath analyzer).
var (
	errBatchTruncated    = errors.New("truncated pair")
	errBatchTrailing     = errors.New("trailing bytes after batch")
	errBatchGroupRange   = errors.New("group index outside the monitor's space")
	errBatchOutcomeRange = errors.New("outcome index outside the monitor's outcomes")

	errJSONSyntax       = errors.New("malformed JSON")
	errJSONTrailing     = errors.New("trailing data after the JSON value")
	errJSONNotObject    = errors.New("body is not a JSON object")
	errJSONUnknownField = errors.New("unknown field")
	errJSONIndexType    = errors.New("index arrays must hold integers")
	errJSONIndexNull    = errors.New("null index")
	errJSONIndexRange   = errors.New("index outside the int range")
)

// decodeBinaryBatch decodes len(groups) (group, outcome) uvarint pairs
// from body starting at off into the preallocated index arrays,
// bounds-checking every index inline — by the time it returns nil the
// batch is fully validated against the monitor's shape.
//
//df:hotpath
func decodeBinaryBatch(body []byte, off int, groups, outcomes []int, numGroups, numOutcomes int) error {
	for i := range groups {
		g, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return errBatchTruncated
		}
		off += n
		y, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return errBatchTruncated
		}
		off += n
		if g >= uint64(numGroups) {
			return errBatchGroupRange
		}
		if y >= uint64(numOutcomes) {
			return errBatchOutcomeRange
		}
		groups[i] = int(g)
		outcomes[i] = int(y)
	}
	if off != len(body) {
		return errBatchTrailing
	}
	return nil
}

// jsonBatchCap bounds the length of any array in a JSON body, so the
// scratch can be sized before decodeJSONBatch runs: an array of k
// elements holds k-1 commas and takes at least 2k+1 bytes.
func jsonBatchCap(body []byte) int {
	return min(bytes.Count(body, []byte{','})+1, len(body)/2)
}

// decodeJSONBatch scans the JSON batch body s.body,
// {"groups":[…],"<form.values>":[…]}, straight into s.groups and
// s.outcomes, which must each hold jsonBatchCap(s.body) elements; it
// trims them to the decoded lengths. It accepts exactly the bodies
// json.Decoder with DisallowUnknownFields decodes into the form's
// struct, with the same result:
//
//   - keys match by bytes.EqualFold after unescaping, and the last of
//     duplicate keys wins;
//   - a null array, or a top-level null, decodes as empty;
//   - elements are integers that fit an int (so -0 is 0);
//   - fractions, exponents, strings, unknown keys and bad syntax are
//     errors.
//
// Two bodies encoding/json accepts are errors here: a null element,
// which it decodes as 0, and bytes after the value (whitespace aside),
// which it leaves unread. At a form's named key the scan stops with
// s.named set: the caller must then decode the whole body with
// decodeNamed. On error the int is the offset the scan stopped at.
//
//df:hotpath
func decodeJSONBatch(s *batchScratch, form *batchForm) (int, error) {
	b := s.body
	ng, no := 0, 0
	s.named = false
	i := skipSpace(b, 0)
	switch {
	case hasLiteral(b, i, "null"):
		i += 4
	case i < len(b) && b[i] == '{':
		i = skipSpace(b, i+1)
		if i < len(b) && b[i] == '}' {
			i++
			break
		}
		for {
			if i >= len(b) || b[i] != '"' {
				return i, errJSONSyntax
			}
			end, escaped, err := scanString(b, i)
			if err != nil {
				return end, err
			}
			key := matchKey(b[i+1:end], escaped, form)
			switch key {
			case keyUnknown:
				return i, errJSONUnknownField
			case keyNamed:
				s.named = true
				return 0, nil
			}
			i = skipSpace(b, end+1)
			if i >= len(b) || b[i] != ':' {
				return i, errJSONSyntax
			}
			i = skipSpace(b, i+1)
			if key == keyGroups {
				ng, i, err = scanIndices(b, i, s.groups)
			} else {
				no, i, err = scanIndices(b, i, s.outcomes)
			}
			if err != nil {
				return i, err
			}
			i = skipSpace(b, i)
			if i < len(b) && b[i] == ',' {
				i = skipSpace(b, i+1)
				continue
			}
			if i < len(b) && b[i] == '}' {
				i++
				break
			}
			return i, errJSONSyntax
		}
	default:
		return i, errJSONNotObject
	}
	if i = skipSpace(b, i); i != len(b) {
		return i, errJSONTrailing
	}
	s.groups, s.outcomes = s.groups[:ng], s.outcomes[:no]
	return 0, nil
}

// jsonKey identifies an object key of a batch body.
type jsonKey int

const (
	keyUnknown jsonKey = iota
	keyGroups
	keyValues
	keyNamed
)

// matchKey resolves a raw (still escaped) object key the way
// encoding/json matches field names: unescaped, then compared with
// bytes.EqualFold, so "Groups" and "groupſ" are "groups".
func matchKey(raw []byte, escaped bool, form *batchForm) jsonKey {
	var buf [48]byte // a match is at most 12 runes of at most 3 bytes
	if escaped {
		n, ok := unescapeKey(raw, buf[:])
		if !ok {
			return keyUnknown
		}
		raw = buf[:n]
	}
	switch {
	case bytes.EqualFold(raw, jsonKeyGroups):
		return keyGroups
	case bytes.EqualFold(raw, form.values):
		return keyValues
	case form.named != nil && bytes.EqualFold(raw, form.named):
		return keyNamed
	}
	return keyUnknown
}

// unescapeKey unescapes a validated JSON string body into buf. It
// reports false for keys that cannot name a field: those longer than
// buf, and those with an escape other than \u of a BMP rune — the
// others stand for punctuation, control characters, or runes outside
// the BMP (or U+FFFD for a lone surrogate), none of which folds to a
// letter of a field name.
func unescapeKey(raw, buf []byte) (int, bool) {
	n := 0
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			if n == len(buf) {
				return 0, false
			}
			buf[n] = raw[i]
			n++
			continue
		}
		if raw[i+1] != 'u' {
			return 0, false
		}
		r := hexDigit(raw[i+2])<<12 | hexDigit(raw[i+3])<<8 | hexDigit(raw[i+4])<<4 | hexDigit(raw[i+5])
		if utf16.IsSurrogate(r) || len(buf)-n < utf8.UTFMax {
			return 0, false
		}
		n += utf8.EncodeRune(buf[n:], r)
		i += 5
	}
	return n, true
}

// scanIndices decodes the index array (or null) at b[i:] into dst and
// returns its length and the offset just past it.
func scanIndices(b []byte, i int, dst []int) (int, int, error) {
	if hasLiteral(b, i, "null") {
		return 0, i + 4, nil
	}
	if i >= len(b) || b[i] != '[' {
		return 0, i, errJSONIndexType
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return 0, i + 1, nil
	}
	for n := 0; ; {
		v, j, err := scanIndex(b, i)
		if err != nil {
			return 0, j, err
		}
		dst[n] = v
		n++
		i = skipSpace(b, j)
		if i >= len(b) {
			return 0, i, errJSONSyntax
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return n, i + 1, nil
		default:
			return 0, i, errJSONSyntax
		}
	}
}

// jsonIndices is an index array inside a body encoding/json decodes
// (decodeNamed): encoding/json delimits the value and scanIndices
// decodes it, so a null element is an error there too.
type jsonIndices []int

func (x *jsonIndices) UnmarshalJSON(b []byte) error {
	dst := make([]int, jsonBatchCap(b))
	n, _, err := scanIndices(b, 0, dst)
	if err != nil {
		return err
	}
	*x = dst[:n]
	return nil
}

// scanIndex decodes the array element at b[i:], which must be a JSON
// integer that fits an int, and returns it with the offset just past
// it.
func scanIndex(b []byte, i int) (int, int, error) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	digits := i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if v >= 1<<60 { // one more digit passes every int
			return 0, start, errJSONIndexRange
		}
		v = v*10 + uint64(b[i]-'0')
	}
	switch {
	case i == digits:
		if hasLiteral(b, start, "null") {
			return 0, start, errJSONIndexNull
		}
		return 0, start, errJSONIndexType
	case b[digits] == '0' && i > digits+1:
		return 0, start, errJSONSyntax // leading zero
	case i < len(b) && (b[i] == '.' || b[i]|0x20 == 'e'):
		return 0, start, errJSONIndexType
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if v > limit {
		return 0, start, errJSONIndexRange
	}
	if neg {
		v = -v // two's complement, so int(v) is the negative value
	}
	return int(v), i, nil
}

// scanString validates the JSON string opening at b[i] and returns the
// offset of its closing quote and whether it holds escapes.
func scanString(b []byte, i int) (int, bool, error) {
	escaped := false
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i, escaped, nil
		case c == '\\':
			escaped = true
			if i++; i >= len(b) {
				return i, false, errJSONSyntax
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i < 5 || hexDigit(b[i+1])|hexDigit(b[i+2])|hexDigit(b[i+3])|hexDigit(b[i+4]) > 0xf {
					return i, false, errJSONSyntax
				}
				i += 4
			default:
				return i, false, errJSONSyntax
			}
		case c < 0x20:
			return i, false, errJSONSyntax
		}
	}
	return i, false, errJSONSyntax
}

func hasLiteral(b []byte, i int, lit string) bool {
	return len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit
}

// jsonSpace has bit c set for each JSON whitespace byte c.
const jsonSpace uint64 = 1<<' ' | 1<<'\t' | 1<<'\n' | 1<<'\r'

func skipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && jsonSpace>>b[i]&1 != 0 {
		i++
	}
	return i
}

// hexDigit returns the value of hex digit c, or 16 if c is not one.
func hexDigit(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c|0x20 && c|0x20 <= 'f':
		return rune(c|0x20-'a') + 10
	}
	return 16
}
