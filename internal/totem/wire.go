package totem

import (
	"errors"
	"fmt"

	"eternal/internal/cdr"
)

// packet type discriminants on the wire.
const (
	ptData     byte = 1
	ptToken    byte = 2
	ptJoin     byte = 3
	ptForm     byte = 4
	ptAnnounce byte = 5
	ptPacked   byte = 6
	ptHurry    byte = 7
	ptForward  byte = 8
)

// ErrBadPacket reports an undecodable totem packet.
var ErrBadPacket = errors.New("totem: bad packet")

// fwdFlagBackground marks a forwarded chunk as background traffic that
// must not cancel the receiver's idle pacing.
const fwdFlagBackground byte = 1

// ringIdentity names one ring incarnation. Epoch increases on every
// reformation; Rep is the representative that formed the ring. The pair is
// globally unique even across network partitions (two partitions may pick
// the same epoch but never the same representative).
type ringIdentity struct {
	Epoch uint64
	Rep   string
}

func (r ringIdentity) String() string { return fmt.Sprintf("ring(%d@%s)", r.Epoch, r.Rep) }

func (r ringIdentity) isZero() bool { return r.Epoch == 0 && r.Rep == "" }

// chunk is one application-message chunk: a whole small message
// (FragTotal == 1) or one MTU-sized fragment of a large one (paper §6:
// IIOP messages larger than one Ethernet frame travel as multiple
// multicast messages).
type chunk struct {
	Sender    string
	MsgID     uint64
	FragIdx   uint32
	FragTotal uint32
	Payload   []byte
}

// dataMsg is one totally-ordered data frame: a single sequence number
// carrying one or more chunks. A frame holding several chunks travels as
// ptPacked — Totem's message packing, which lets many sub-MTU messages
// share one frame and one sequence number while the sender holds the
// token. A frame with no chunks is the local tombstone for an
// unrecoverable sequence number; tombstones never go on the wire.
type dataMsg struct {
	Ring   ringIdentity
	Seq    uint64
	Chunks []chunk
}

// tokenMsg is the rotating token: it carries the high sequence number, the
// all-received-up-to aggregation, the garbage-collection point, and the
// retransmission request list.
type tokenMsg struct {
	Ring      ringIdentity
	Round     uint64
	Seq       uint64
	Aru       uint64
	AruSetter string
	GCSeq     uint64
	// IdleHops counts consecutive hops on which the holder had nothing to
	// send, retransmit or request; after a full idle rotation, holders
	// pace the token to one hop per tick instead of spinning at wire
	// speed (Totem's token idling).
	IdleHops uint32
	Rtr      []uint64
}

// hurryMsg is the token hurry nudge: a member that enqueues a message
// while the ring is idle-paced broadcasts one so the current holder
// releases its parked token immediately and every hop crosses at wire
// speed until the enqueuer is served. Broadcast rather than unicast
// because the enqueuer does not track who holds the parked token; on the
// broadcast LAN the protocol models, reaching everyone costs the same
// single frame as reaching the holder.
type hurryMsg struct {
	Ring   ringIdentity
	Origin string
}

// forwardMsg carries a fast-path follower's chunks to the ring leader for
// immediate sequencing (the LLFT-style leader-ordered fast path). Start
// is the per-ring forward sequence number of the first chunk and the
// chunks are consecutive, so the leader's per-sender in-order acceptance
// filters duplicates and parks out-of-order arrivals until the gap fills
// (from the follower's retry, if the gap was a loss). Aru is the
// sender's all-received-up-to at sending time, a fresher anchor for the
// leader window than the token's. Flags carries one octet per chunk
// (bit 0: background traffic that must not cancel idle pacing).
type forwardMsg struct {
	Ring   ringIdentity
	Sender string
	Start  uint64
	Aru    uint64
	Flags  []byte
	Chunks []chunk
}

// announceMsg is a low-rate beacon broadcast by the ring representative so
// that rings which cannot hear each other's (unicast) tokens discover each
// other after a partition heals and merge.
type announceMsg struct {
	Ring ringIdentity
}

// joinMsg is broadcast while gathering membership.
type joinMsg struct {
	Sender   string
	Alive    []string
	PrevRing ringIdentity
	HighSeq  uint64
	MaxEpoch uint64
}

// formMsg installs a new ring. Members whose previous ring identity equals
// Lineage continue the sequence space; everyone else resets to StartSeq.
type formMsg struct {
	Ring     ringIdentity
	Members  []string
	Lineage  ringIdentity
	StartSeq uint64
}

// wireMsg is any totem message that can encode itself into a CDR stream.
// Encoding appends into a caller-supplied encoder so senders can reuse
// pooled buffers (see Processor.bcastMsg/sendMsg).
type wireMsg interface {
	encodeTo(e *cdr.Encoder)
}

func encodeRing(e *cdr.Encoder, r ringIdentity) {
	e.WriteULongLong(r.Epoch)
	e.WriteString(r.Rep)
}

func decodeRing(d *cdr.Decoder) (ringIdentity, error) {
	var r ringIdentity
	var err error
	if r.Epoch, err = d.ReadULongLong(); err != nil {
		return r, err
	}
	if r.Rep, err = d.ReadString(); err != nil {
		return r, err
	}
	return r, nil
}

func encodeStrings(e *cdr.Encoder, ss []string) {
	e.WriteULong(uint32(len(ss)))
	for _, s := range ss {
		e.WriteString(s)
	}
}

func decodeStrings(d *cdr.Decoder) ([]string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint64(n)*4 > uint64(d.Remaining()) {
		return nil, cdr.ErrLengthOverflow
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		s, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func encodeChunk(e *cdr.Encoder, c *chunk) {
	e.WriteString(c.Sender)
	e.WriteULongLong(c.MsgID)
	e.WriteULong(c.FragIdx)
	e.WriteULong(c.FragTotal)
	e.WriteOctetSeq(c.Payload)
}

// decodeChunk parses one chunk. Payloads alias the packet buffer (no
// copy); that is safe because nothing in the delivery path mutates them
// and the packet buffer is immutable once received.
func decodeChunk(d *cdr.Decoder, c *chunk) error {
	var err error
	if c.Sender, err = d.ReadString(); err != nil {
		return err
	}
	if c.MsgID, err = d.ReadULongLong(); err != nil {
		return err
	}
	if c.FragIdx, err = d.ReadULong(); err != nil {
		return err
	}
	if c.FragTotal, err = d.ReadULong(); err != nil {
		return err
	}
	if c.Payload, err = d.ReadOctetSeqView(); err != nil {
		return err
	}
	return nil
}

// Conservative wire-size bounds used by the packer (sendPending) to keep a
// packed frame within the transport MTU without a trial encode. Both
// over-estimate CDR alignment padding slightly; precision is not needed,
// only the guarantee that estimate >= encoded size.
const (
	// packedFrameOverhead bounds the frame header: type octet, ring
	// identity (minus the representative name, added by the caller),
	// sequence number and chunk count.
	packedFrameOverhead = 48
	// packedChunkOverhead bounds one chunk's encoding beyond its sender
	// name and payload bytes.
	packedChunkOverhead = 48
	// fwdFrameOverhead bounds a forward frame's header beyond the sender
	// and representative names: type octet, ring identity, start forward
	// sequence, aru and chunk count.
	fwdFrameOverhead = 72
)

// wireCost conservatively bounds the bytes c adds to a packed frame.
func (c *chunk) wireCost() int { return packedChunkOverhead + len(c.Sender) + len(c.Payload) }

func (m *dataMsg) encodeTo(e *cdr.Encoder) {
	if len(m.Chunks) == 1 {
		// Single-chunk frames keep the pre-packing ptData layout, so a
		// packing sender interoperates with a Packing-off receiver.
		c := &m.Chunks[0]
		e.WriteOctet(ptData)
		encodeRing(e, m.Ring)
		e.WriteULongLong(m.Seq)
		encodeChunk(e, c)
		return
	}
	e.WriteOctet(ptPacked)
	encodeRing(e, m.Ring)
	e.WriteULongLong(m.Seq)
	e.WriteULong(uint32(len(m.Chunks)))
	for i := range m.Chunks {
		encodeChunk(e, &m.Chunks[i])
	}
}

func (m *tokenMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptToken)
	encodeRing(e, m.Ring)
	e.WriteULongLong(m.Round)
	e.WriteULongLong(m.Seq)
	e.WriteULongLong(m.Aru)
	e.WriteString(m.AruSetter)
	e.WriteULongLong(m.GCSeq)
	e.WriteULong(m.IdleHops)
	e.WriteULong(uint32(len(m.Rtr)))
	for _, s := range m.Rtr {
		e.WriteULongLong(s)
	}
}

func (m *joinMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptJoin)
	e.WriteString(m.Sender)
	encodeStrings(e, m.Alive)
	encodeRing(e, m.PrevRing)
	e.WriteULongLong(m.HighSeq)
	e.WriteULongLong(m.MaxEpoch)
}

func (m *announceMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptAnnounce)
	encodeRing(e, m.Ring)
}

func (m *hurryMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptHurry)
	encodeRing(e, m.Ring)
	e.WriteString(m.Origin)
}

func (m *forwardMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptForward)
	encodeRing(e, m.Ring)
	e.WriteString(m.Sender)
	e.WriteULongLong(m.Start)
	e.WriteULongLong(m.Aru)
	e.WriteULong(uint32(len(m.Chunks)))
	for i := range m.Chunks {
		var f byte
		if i < len(m.Flags) {
			f = m.Flags[i]
		}
		e.WriteOctet(f)
		encodeChunk(e, &m.Chunks[i])
	}
}

func (m *formMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptForm)
	encodeRing(e, m.Ring)
	encodeStrings(e, m.Members)
	encodeRing(e, m.Lineage)
	e.WriteULongLong(m.StartSeq)
}

// decodePacket parses any totem packet, returning one of *dataMsg,
// *tokenMsg, *joinMsg, *formMsg, *announceMsg, *hurryMsg or *forwardMsg.
// Chunk payloads in the returned dataMsg/forwardMsg alias buf.
func decodePacket(buf []byte) (any, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	t, err := d.ReadOctet()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	switch t {
	case ptData:
		var m dataMsg
		if m.Ring, err = decodeRing(d); err != nil {
			break
		}
		if m.Seq, err = d.ReadULongLong(); err != nil {
			break
		}
		m.Chunks = make([]chunk, 1)
		if err = decodeChunk(d, &m.Chunks[0]); err != nil {
			break
		}
		return &m, nil
	case ptPacked:
		var m dataMsg
		if m.Ring, err = decodeRing(d); err != nil {
			break
		}
		if m.Seq, err = d.ReadULongLong(); err != nil {
			break
		}
		var n uint32
		if n, err = d.ReadULong(); err != nil {
			break
		}
		// Each chunk costs at least ~25 wire bytes; a declared count far
		// beyond the remaining stream is a corrupt or hostile frame.
		if uint64(n)*16 > uint64(d.Remaining()+16) {
			err = cdr.ErrLengthOverflow
			break
		}
		m.Chunks = make([]chunk, n)
		for i := uint32(0); i < n; i++ {
			if err = decodeChunk(d, &m.Chunks[i]); err != nil {
				break
			}
		}
		if err != nil {
			break
		}
		return &m, nil
	case ptToken:
		var m tokenMsg
		if m.Ring, err = decodeRing(d); err != nil {
			break
		}
		if m.Round, err = d.ReadULongLong(); err != nil {
			break
		}
		if m.Seq, err = d.ReadULongLong(); err != nil {
			break
		}
		if m.Aru, err = d.ReadULongLong(); err != nil {
			break
		}
		if m.AruSetter, err = d.ReadString(); err != nil {
			break
		}
		if m.GCSeq, err = d.ReadULongLong(); err != nil {
			break
		}
		if m.IdleHops, err = d.ReadULong(); err != nil {
			break
		}
		var n uint32
		if n, err = d.ReadULong(); err != nil {
			break
		}
		if uint64(n)*8 > uint64(d.Remaining()+8) {
			err = cdr.ErrLengthOverflow
			break
		}
		for i := uint32(0); i < n; i++ {
			var s uint64
			if s, err = d.ReadULongLong(); err != nil {
				break
			}
			m.Rtr = append(m.Rtr, s)
		}
		if err != nil {
			break
		}
		return &m, nil
	case ptJoin:
		var m joinMsg
		if m.Sender, err = d.ReadString(); err != nil {
			break
		}
		if m.Alive, err = decodeStrings(d); err != nil {
			break
		}
		if m.PrevRing, err = decodeRing(d); err != nil {
			break
		}
		if m.HighSeq, err = d.ReadULongLong(); err != nil {
			break
		}
		if m.MaxEpoch, err = d.ReadULongLong(); err != nil {
			break
		}
		return &m, nil
	case ptForm:
		var m formMsg
		if m.Ring, err = decodeRing(d); err != nil {
			break
		}
		if m.Members, err = decodeStrings(d); err != nil {
			break
		}
		if m.Lineage, err = decodeRing(d); err != nil {
			break
		}
		if m.StartSeq, err = d.ReadULongLong(); err != nil {
			break
		}
		return &m, nil
	case ptAnnounce:
		var m announceMsg
		if m.Ring, err = decodeRing(d); err != nil {
			break
		}
		return &m, nil
	case ptHurry:
		var m hurryMsg
		if m.Ring, err = decodeRing(d); err != nil {
			break
		}
		if m.Origin, err = d.ReadString(); err != nil {
			break
		}
		return &m, nil
	case ptForward:
		var m forwardMsg
		if m.Ring, err = decodeRing(d); err != nil {
			break
		}
		if m.Sender, err = d.ReadString(); err != nil {
			break
		}
		if m.Start, err = d.ReadULongLong(); err != nil {
			break
		}
		if m.Aru, err = d.ReadULongLong(); err != nil {
			break
		}
		var n uint32
		if n, err = d.ReadULong(); err != nil {
			break
		}
		if uint64(n)*16 > uint64(d.Remaining()+16) {
			err = cdr.ErrLengthOverflow
			break
		}
		m.Flags = make([]byte, n)
		m.Chunks = make([]chunk, n)
		for i := uint32(0); i < n; i++ {
			if m.Flags[i], err = d.ReadOctet(); err != nil {
				break
			}
			if err = decodeChunk(d, &m.Chunks[i]); err != nil {
				break
			}
		}
		if err != nil {
			break
		}
		return &m, nil
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadPacket, t)
	}
	return nil, fmt.Errorf("%w: %v", ErrBadPacket, err)
}
