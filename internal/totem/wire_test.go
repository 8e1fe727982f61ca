package totem

import (
	"bytes"
	"fmt"
	"testing"

	"eternal/internal/cdr"
)

func encodeMsg(m wireMsg) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	m.encodeTo(e)
	return bytes.Clone(e.Bytes())
}

func TestPackedFrameRoundTrip(t *testing.T) {
	in := &dataMsg{
		Ring: ringIdentity{Epoch: 7, Rep: "node-a"},
		Seq:  42,
		Chunks: []chunk{
			{Sender: "node-a", MsgID: 1, FragIdx: 0, FragTotal: 1, Payload: []byte("alpha")},
			{Sender: "node-b", MsgID: 9, FragIdx: 2, FragTotal: 3, Payload: []byte{}},
			{Sender: "node-a", MsgID: 2, FragIdx: 0, FragTotal: 1, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		},
	}
	buf := encodeMsg(in)
	if buf[0] != ptPacked {
		t.Fatalf("multi-chunk frame encoded as type %d, want ptPacked", buf[0])
	}
	got, err := decodePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := got.(*dataMsg)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	if out.Ring != in.Ring || out.Seq != in.Seq || len(out.Chunks) != len(in.Chunks) {
		t.Fatalf("frame mismatch: %+v", out)
	}
	for i := range in.Chunks {
		a, b := &in.Chunks[i], &out.Chunks[i]
		if a.Sender != b.Sender || a.MsgID != b.MsgID || a.FragIdx != b.FragIdx ||
			a.FragTotal != b.FragTotal || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("chunk %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

// TestSingleChunkKeepsLegacyLayout pins the interop property: a frame
// carrying one chunk uses the pre-packing ptData wire form, so senders
// with packing enabled interoperate with older/packing-off receivers.
func TestSingleChunkKeepsLegacyLayout(t *testing.T) {
	in := &dataMsg{
		Ring:   ringIdentity{Epoch: 3, Rep: "x"},
		Seq:    5,
		Chunks: []chunk{{Sender: "x", MsgID: 4, FragIdx: 0, FragTotal: 1, Payload: []byte("hi")}},
	}
	buf := encodeMsg(in)
	if buf[0] != ptData {
		t.Fatalf("single-chunk frame encoded as type %d, want ptData", buf[0])
	}
	got, err := decodePacket(buf)
	if err != nil {
		t.Fatal(err)
	}
	out := got.(*dataMsg)
	if len(out.Chunks) != 1 || out.Chunks[0].MsgID != 4 || string(out.Chunks[0].Payload) != "hi" {
		t.Fatalf("decoded %+v", out)
	}
}

// TestWireCostBoundsEncodedSize verifies the packer's conservative size
// arithmetic: for any frame, the wireCost estimate must be >= the actual
// encoded size, or packed frames could exceed the transport MTU.
func TestWireCostBoundsEncodedSize(t *testing.T) {
	payloads := [][]byte{
		{}, []byte("x"), bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 1300),
	}
	for _, rep := range []string{"a", "a-very-long-representative-name-padding-to-sixty-four-bytes!!!"} {
		frame := &dataMsg{Ring: ringIdentity{Epoch: 1, Rep: rep}, Seq: 1}
		estimate := packedFrameOverhead + len(rep)
		for i, pl := range payloads {
			c := chunk{Sender: rep, MsgID: uint64(i), FragIdx: 0, FragTotal: 1, Payload: pl}
			frame.Chunks = append(frame.Chunks, c)
			estimate += c.wireCost()
			if len(frame.Chunks) < 2 {
				continue // single-chunk layout is bounded trivially
			}
			if got := len(encodeMsg(frame)); got > estimate {
				t.Fatalf("rep=%q chunks=%d: encoded %d bytes > estimate %d",
					rep, len(frame.Chunks), got, estimate)
			}
		}
		// A forward frame of the same chunks stays within the bound
		// forwardPending splits on.
		fwd := &forwardMsg{Ring: frame.Ring, Sender: rep, Start: 1, Aru: 1, Chunks: frame.Chunks, Flags: make([]byte, len(frame.Chunks))}
		estimate = fwdFrameOverhead + len(rep) + len(rep)
		for i := range fwd.Chunks {
			estimate += fwd.Chunks[i].wireCost()
		}
		if got := len(encodeMsg(fwd)); got > estimate {
			t.Fatalf("rep=%q forward frame: encoded %d bytes > estimate %d", rep, got, estimate)
		}
	}
}

func TestPackedDecodeRejectsBogusCount(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(ptPacked)
	encodeRing(e, ringIdentity{Epoch: 1, Rep: "a"})
	e.WriteULongLong(9)
	e.WriteULong(1 << 30) // claims a billion chunks in an empty stream
	if _, err := decodePacket(bytes.Clone(e.Bytes())); err == nil {
		t.Fatal("decodePacket accepted a hostile chunk count")
	}
}

func TestAllMessageTypesRoundTrip(t *testing.T) {
	msgs := []wireMsg{
		&tokenMsg{Ring: ringIdentity{1, "a"}, Round: 2, Seq: 3, Aru: 1, AruSetter: "b", GCSeq: 1, IdleHops: 4, Rtr: []uint64{7, 9}},
		&joinMsg{Sender: "a", Alive: []string{"a", "b"}, PrevRing: ringIdentity{1, "a"}, HighSeq: 10, MaxEpoch: 2},
		&formMsg{Ring: ringIdentity{2, "a"}, Members: []string{"a", "b"}, Lineage: ringIdentity{1, "a"}, StartSeq: 10},
		&announceMsg{Ring: ringIdentity{2, "a"}},
		&hurryMsg{Ring: ringIdentity{2, "a"}, Origin: "b"},
		&forwardMsg{Ring: ringIdentity{2, "a"}, Sender: "b", Start: 5, Aru: 9, Flags: []byte{0, fwdFlagBackground},
			Chunks: []chunk{{Sender: "b", MsgID: 3, FragTotal: 1, Payload: []byte("x")}, {Sender: "b", MsgID: 4, FragTotal: 1, Payload: []byte{}}}},
	}
	for _, in := range msgs {
		got, err := decodePacket(encodeMsg(in))
		if err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", in) {
			t.Fatalf("%T round trip: %+v vs %+v", in, got, in)
		}
	}
}
