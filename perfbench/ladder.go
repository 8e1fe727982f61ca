package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/giop"
	"eternal/internal/interceptor"
	"eternal/internal/recovery"
	"eternal/internal/replication"
	"eternal/internal/simnet"
	"eternal/internal/totem"
)

// The layer ladder times each layer's public functions alone, over the
// workload's own arguments, so a change in an end-to-end figure can be
// traced to the layer whose rung moved.

const (
	ladderBatches  = 15
	ladderPerBatch = 2000
	orderSamples   = 400
)

// rung runs f perBatch times in each of ladderBatches batches, files one
// span per batch, and returns the median nanoseconds per call.
func (b *bench) rung(name string, parent uint64, perBatch int, f func(i int) error) (float64, error) {
	per := make([]float64, 0, ladderBatches)
	for range ladderBatches {
		start := time.Now()
		for i := range perBatch {
			if err := f(i); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		end := time.Now()
		b.tr.add(b.tr.span(name, parent, 0, start, end))
		per = append(per, float64(end.Sub(start).Nanoseconds())/float64(perBatch))
	}
	return median(per), nil
}

// ladder runs every rung and returns the per-layer values it measured.
func (b *bench) ladder(parent uint64) (map[string]float64, error) {
	ops := b.in.ops[0]
	key := b.refs[0].Key()
	out := make(map[string]float64)
	var err error
	var sink []byte

	if out["cdr.encode_ns"], err = b.rung("ladder cdr.Encoder", parent, ladderPerBatch, func(i int) error {
		o := &ops[i%len(ops)]
		e := cdr.NewEncoder(cdr.BigEndian)
		e.WriteString(o.name)
		e.WriteOctetSeq(o.payload)
		sink = e.Bytes()
		return nil
	}); err != nil {
		return nil, err
	}
	if out["cdr.decode_ns"], err = b.rung("ladder cdr.Decoder", parent, ladderPerBatch, func(i int) error {
		d := cdr.NewDecoder(ops[i%len(ops)].args, cdr.BigEndian)
		if _, err := d.ReadString(); err != nil {
			return err
		}
		_, err := d.ReadOctetSeqView()
		return err
	}); err != nil {
		return nil, err
	}

	request := func(i int) *giop.Message {
		return giop.EncodeRequest(giop.Version12, cdr.BigEndian, &giop.RequestHeader{
			RequestID: uint32(i), ResponseExpected: true, ObjectKey: key, Operation: "add",
		}, ops[i%len(ops)].args)
	}
	if out["giop.req_roundtrip_ns"], err = b.rung("ladder giop request", parent, ladderPerBatch, func(i int) error {
		m, err := giop.ReadMessage(bytes.NewReader(request(i).Marshal()))
		if err != nil {
			return err
		}
		_, err = giop.ParseRequest(m)
		return err
	}); err != nil {
		return nil, err
	}

	reqFrame := request(1).Marshal()
	replyFrame := giop.EncodeReply(giop.Version12, cdr.BigEndian,
		&giop.ReplyHeader{RequestID: 1, Status: giop.ReplyNoException}, make([]byte, 16)).Marshal()
	orbEnd, mechEnd := interceptor.Pipe()
	if out["interceptor.pipe_rt_ns"], err = b.rung("ladder interceptor.Pipe", parent, ladderPerBatch, func(int) error {
		if _, err := orbEnd.Write(reqFrame); err != nil {
			return err
		}
		if _, err := giop.ReadMessage(mechEnd); err != nil {
			return err
		}
		if _, err := mechEnd.Write(replyFrame); err != nil {
			return err
		}
		_, err := giop.ReadMessage(orbEnd)
		return err
	}); err != nil {
		return nil, err
	}
	orbEnd.Close()
	mechEnd.Close()

	env := replication.Envelope{
		Kind: replication.KRequest, Group: groupName, Node: "n1",
		Conn:    replication.ConnID{Client: "client0", Group: groupName, Seq: 1},
		Payload: reqFrame,
	}
	if out["replication.env_encode_ns"], err = b.rung("ladder replication.Encode", parent, ladderPerBatch, func(i int) error {
		env.OpID, env.Trace = uint32(i), uint64(i)
		sink = env.Encode()
		return nil
	}); err != nil {
		return nil, err
	}
	encoded := env.Encode()
	if out["replication.env_decode_ns"], err = b.rung("ladder replication.Decode", parent, ladderPerBatch, func(int) error {
		_, err := replication.Decode(encoded)
		return err
	}); err != nil {
		return nil, err
	}

	if out["totem.order_rt_us_p50"], err = b.orderRoundTrip(parent, encoded); err != nil {
		return nil, err
	}

	if b.w.recover {
		var app []byte
		if s := b.reps.get("n1"); s != nil {
			app = s.stateBytes()
		}
		enc := (&recovery.Bundle{AppState: app}).Encode()
		var ns float64
		if ns, err = b.rung("ladder recovery split+assemble", parent, 4, func(int) error {
			return splitAssemble(enc)
		}); err != nil {
			return nil, err
		}
		out["recovery.split_assemble_ms"] = ns / 1e6
	}
	_ = sink
	return out, nil
}

// splitAssemble is the state-transfer path without the network: the donor
// splits the encoded bundle and builds its manifest, the recovering side
// assembles and verifies it.
func splitAssemble(enc []byte) error {
	chunks := recovery.SplitChunks(enc, recovery.DefaultChunkBytes)
	m := recovery.NewManifest(enc, chunks, recovery.DefaultChunkBytes)
	a := recovery.NewAssembly()
	a.SetManifest(m)
	for i, c := range chunks {
		if err := a.AddChunk(i, c); err != nil {
			return err
		}
	}
	if !a.Complete() || !bytes.Equal(a.Bytes(), enc) {
		return errors.New("assembly incomplete or corrupt")
	}
	return nil
}

// orderRoundTrip starts a standalone totem ring of the workload's size on
// the paper LAN and times Multicast to self-delivery of one envelope.
func (b *bench) orderRoundTrip(parent uint64, payload []byte) (float64, error) {
	net := simnet.New(paperLAN())
	var procs []*totem.Processor
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	for i := range b.w.replicas {
		ep, err := net.Join(fmt.Sprintf("p%d", i))
		if err != nil {
			return 0, err
		}
		cfg := benchTotem()
		cfg.Transport = totem.NewSimnetTransport(ep)
		p, err := totem.Start(cfg)
		if err != nil {
			return 0, err
		}
		procs = append(procs, p)
	}
	formed := time.After(10 * time.Second)
	for ring := false; !ring; {
		select {
		case v := <-procs[0].Views():
			ring = len(v.Members) == b.w.replicas
		case <-formed:
			return 0, errors.New("totem ring never formed")
		}
	}
	samples := make([]float64, 0, orderSamples)
	for i := range orderSamples + orderSamples/8 {
		start := time.Now()
		if err := procs[0].Multicast(payload); err != nil {
			return 0, err
		}
		timeout := time.After(5 * time.Second)
		for delivered := false; !delivered; {
			select {
			case d := <-procs[0].Deliveries():
				delivered = d.View == nil
			case <-timeout:
				return 0, errors.New("totem self-delivery timed out")
			}
		}
		end := time.Now()
		if i >= orderSamples/8 { // the first eighth warms the ring up
			b.tr.add(b.tr.span("ladder totem.Multicast", parent, 0, start, end))
			samples = append(samples, float64(end.Sub(start).Nanoseconds())/1e3)
		}
	}
	return percentile(samples, 0.5)
}
