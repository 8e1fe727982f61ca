package main

import (
	"fmt"
	"slices"
	"sync"

	"eternal"
	"eternal/internal/orb"
)

// keyRecord is what the replicated store keeps per key: how many add
// operations it has applied and a running FNV-1a digest of their payloads.
// Every reply carries the record after the add, so a client can check each
// reply against its own model of the keys it writes.
type keyRecord struct{ count, digest uint64 }

const digestBasis = 14695981039346656037

func (r keyRecord) add(payload []byte) keyRecord {
	d := r.digest
	for _, b := range payload {
		d ^= uint64(b)
		d *= 1099511628211
	}
	return keyRecord{count: r.count + 1, digest: d}
}

// store is the benchmark's replicated object. Its application state is an
// opaque seeded blob (the recovery workload's 1 MiB) plus one keyRecord per
// key. Each add also folds its payload into the blob, so state transfer
// carries changes to the blob and not only its initial contents.
type store struct {
	mu   sync.Mutex
	blob []byte
	recs map[string]keyRecord
}

func newStore(blob []byte) *store {
	return &store{blob: slices.Clone(blob), recs: make(map[string]keyRecord)}
}

func (s *store) Invoke(op string, args []byte, order eternal.ByteOrder) ([]byte, error) {
	if op != "add" {
		return nil, orb.BadOperation()
	}
	d := eternal.NewDecoder(args, order)
	key, err := d.ReadString()
	if err != nil {
		return nil, orb.Internal()
	}
	payload, err := d.ReadOctetSeqView()
	if err != nil {
		return nil, orb.Internal()
	}
	s.mu.Lock()
	r := s.recs[key]
	if r.count == 0 {
		r.digest = digestBasis
	}
	r = r.add(payload)
	s.recs[key] = r
	if span := len(s.blob) - len(payload); span >= 0 {
		off := int(r.digest % uint64(span+1))
		for i, b := range payload {
			s.blob[off+i] ^= b
		}
	}
	s.mu.Unlock()
	e := eternal.NewEncoder(order)
	e.WriteULongLong(r.count)
	e.WriteULongLong(r.digest)
	return e.Bytes(), nil
}

func (s *store) GetState() (eternal.Any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := eternal.NewEncoder(eternal.BigEndian)
	e.WriteOctetSeq(s.blob)
	keys := make([]string, 0, len(s.recs))
	for k := range s.recs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.WriteULong(uint32(len(keys)))
	for _, k := range keys {
		r := s.recs[k]
		e.WriteString(k)
		e.WriteULongLong(r.count)
		e.WriteULongLong(r.digest)
	}
	return eternal.AnyFromBytes(e.Bytes()), nil
}

func (s *store) SetState(st eternal.Any) error {
	raw, err := st.Bytes()
	if err != nil {
		return eternal.ErrInvalidState
	}
	blob, recs, err := decodeState(raw)
	if err != nil {
		return eternal.ErrInvalidState
	}
	s.mu.Lock()
	s.blob, s.recs = blob, recs
	s.mu.Unlock()
	return nil
}

// stateBytes is the store's GetState encoding, for byte-equality checks.
func (s *store) stateBytes() []byte {
	st, _ := s.GetState() // never fails
	raw, _ := st.Bytes()
	return raw
}

func decodeState(raw []byte) ([]byte, map[string]keyRecord, error) {
	d := eternal.NewDecoder(raw, eternal.BigEndian)
	blob, err := d.ReadOctetSeq()
	if err != nil {
		return nil, nil, err
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, nil, err
	}
	recs := make(map[string]keyRecord, n)
	for i := uint32(0); i < n; i++ {
		k, err := d.ReadString()
		if err != nil {
			return nil, nil, err
		}
		var r keyRecord
		if r.count, err = d.ReadULongLong(); err != nil {
			return nil, nil, err
		}
		if r.digest, err = d.ReadULongLong(); err != nil {
			return nil, nil, err
		}
		recs[k] = r
	}
	return blob, recs, nil
}

// maxPending bounds how many timed-out calls on one key the model keeps
// open; each may or may not have executed, so checking a reply enumerates
// 2^pending candidate records.
const maxPending = 8

// replyModel is one client's model of the keys it alone writes. A call
// that times out leaves its key ambiguous: the operation may or may not
// have executed. The next reply on that key is accepted if it matches any
// order-preserving subset of the timed-out payloads followed by its own,
// and the model resynchronises to it.
type replyModel struct {
	keys    []keyRecord
	pending [][][]byte // per key: payloads of unresolved timed-out calls
	lost    []bool     // per key: more than maxPending unresolved calls
}

func newReplyModel(nkeys int) *replyModel {
	m := &replyModel{
		keys:    make([]keyRecord, nkeys),
		pending: make([][][]byte, nkeys),
		lost:    make([]bool, nkeys),
	}
	for i := range m.keys {
		m.keys[i].digest = digestBasis
	}
	return m
}

// candidates calls f with every record the key may hold, given the
// unresolved timed-out calls, until f returns true.
func (m *replyModel) candidates(key int, f func(keyRecord) bool) bool {
	pend := m.pending[key]
	for mask := 0; mask < 1<<len(pend); mask++ {
		r := m.keys[key]
		for i, p := range pend {
			if mask&(1<<i) != 0 {
				r = r.add(p)
			}
		}
		if f(r) {
			return true
		}
	}
	return false
}

// check verifies the reply to add(key, payload) and advances the model. A
// wrong reply, or a reply seen twice, does not match and is an error.
func (m *replyModel) check(key int, payload []byte, got keyRecord) error {
	ok := m.candidates(key, func(r keyRecord) bool { return r.add(payload) == got })
	if !ok && m.lost[key] {
		ok = got.count > m.keys[key].count
	}
	if !ok {
		return fmt.Errorf("key %d: reply count %d digest %016x does not follow count %d digest %016x (%d calls unresolved)",
			key, got.count, got.digest, m.keys[key].count, m.keys[key].digest, len(m.pending[key]))
	}
	m.keys[key], m.pending[key], m.lost[key] = got, m.pending[key][:0], false
	return nil
}

// timedOut records a call whose reply never came.
func (m *replyModel) timedOut(key int, payload []byte) {
	if len(m.pending[key]) == maxPending {
		m.lost[key] = true
		return
	}
	m.pending[key] = append(m.pending[key], payload)
}

// accepts reports whether a replica's final record for the key agrees
// with the model.
func (m *replyModel) accepts(key int, r keyRecord) bool {
	if m.lost[key] {
		return r.count >= m.keys[key].count
	}
	return m.candidates(key, func(c keyRecord) bool { return c == r })
}
