package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"eternal/internal/faultdetect"
	"eternal/internal/ftcorba"
	"eternal/internal/obs"
	"eternal/internal/recovery"
	"eternal/internal/replication"
	"eternal/internal/totem"
)

// loop is the node's single delivery-processing goroutine: it evaluates
// the deterministic state machine over the totally-ordered stream. It
// must never block on replica execution — that is what the per-replica
// dispatchers are for.
func (n *Node) loop() {
	defer close(n.loopDone)
	defer n.shutdownHosts()
	ticker := time.NewTicker(n.cfg.ManagerTick)
	defer ticker.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case d, ok := <-n.proc.Deliveries():
			if !ok {
				return
			}
			n.handleDelivery(d)
		case now := <-ticker.C:
			n.sweep(now)
		case f := <-n.calls:
			f()
		}
	}
}

func (n *Node) shutdownHosts() {
	for _, h := range n.hosts {
		h.stop()
	}
	n.clientsMu.Lock()
	clients := make([]*clientEntity, 0, len(n.clients))
	for _, ce := range n.clients {
		clients = append(clients, ce)
	}
	n.clientsMu.Unlock()
	for _, ce := range clients {
		ce.closeAll()
	}
}

func (n *Node) handleDelivery(d totem.Delivery) {
	n.lastSeq.Store(d.Seq)
	if !n.synced {
		n.handleUnsynced(d)
		return
	}
	if d.View != nil {
		n.handleView(d.View)
		return
	}
	env, err := replication.Decode(d.Payload)
	if err != nil {
		return
	}
	n.handleEnvelope(d.Seq, env)
}

// --- metadata synchronization for joining nodes ---

func (n *Node) handleUnsynced(d totem.Delivery) {
	if d.View != nil {
		n.live = slices.Clone(d.View.Members)
		if len(d.View.Members) == 1 && d.View.Members[0] == n.addr {
			// Alone in the domain: nothing to synchronize with.
			n.becomeSynced(replication.NewTable(), nil)
			return
		}
		if !n.syncRequested {
			n.syncRequested = true
			n.multicast(&replication.Envelope{Kind: replication.KSyncRequest, Node: n.addr})
		}
		return
	}
	env, err := replication.Decode(d.Payload)
	if err != nil {
		return
	}
	switch {
	case env.Kind == replication.KSyncRequest && env.Node == n.addr:
		// Our own request's position is the snapshot point: buffer
		// everything after it.
		n.syncWaiting = true
		n.syncReqAt = time.Now()
		n.syncBuf = nil
	case env.Kind == replication.KSyncState && env.Node == n.addr && n.syncWaiting:
		table, err := replication.DecodeTable(env.Payload)
		if err != nil {
			return
		}
		n.becomeSynced(table, n.syncBuf)
	case n.syncWaiting:
		n.syncBuf = append(n.syncBuf, d)
	}
}

// rebuildGroupSet refreshes the read-mostly group view the API goroutines
// consult (dialers, IOR minting).
func (n *Node) rebuildGroupSet() {
	n.groupsMu.Lock()
	defer n.groupsMu.Unlock()
	n.groupSet = make(map[string]*replication.GroupSpec, len(n.table.Names()))
	for _, name := range n.table.Names() {
		g, _ := n.table.Get(name)
		spec := g.Spec
		n.groupSet[name] = &spec
	}
}

func (n *Node) becomeSynced(table *replication.Table, buffered []totem.Delivery) {
	n.table = table
	n.rebuildGroupSet()
	n.synced = true
	n.syncWaiting = false
	n.syncBuf = nil
	n.recorder.Record(obs.Event{
		Type:   obs.EventSynced,
		Detail: fmt.Sprintf("groups=%d buffered=%d", len(table.Names()), len(buffered)),
	})

	// If the received table still lists this (freshly restarted) node as a
	// member, those replicas died with the previous incarnation: remove
	// them so the Resource Manager can re-launch clean ones.
	for _, name := range table.Names() {
		g, _ := table.Get(name)
		if g.HasMember(n.addr) {
			n.multicast(&replication.Envelope{
				Kind:  replication.KRemoveMember,
				Group: name,
				Node:  n.addr,
			})
		}
	}
	for _, d := range buffered {
		n.handleDelivery(d)
	}
	n.signal("synced")
}

// AwaitSynced blocks until the node has the group-metadata table (joined
// nodes synchronize against an existing member; the first node of a
// domain self-declares after a quiet period).
func (n *Node) AwaitSynced(timeout time.Duration) error {
	return n.await(n.subscribe("synced"), timeout)
}

// --- view changes ---

func (n *Node) handleView(v *totem.Membership) {
	// The view's stream position (StartSeq) is agreed across the lineage,
	// and so is its content — but not the Reset flag, which is this
	// processor's own relationship to the lineage; it is recorded as a
	// separate local event so cross-node merges see identical view events.
	n.recorder.Record(obs.Event{
		Type: obs.EventView, Seq: v.StartSeq, Ordered: true,
		Detail: fmt.Sprintf("epoch=%d rep=%s members=%s",
			v.Epoch, v.Rep, strings.Join(v.Members, ",")),
	})
	if v.Reset {
		// We are on the losing side of a partition merge: our replicas
		// diverged and our metadata is stale. Re-synchronize from scratch
		// and shed our (now worthless) replicas.
		n.recorder.Record(obs.Event{
			Type: obs.EventViewReset, Seq: v.StartSeq,
			Detail: fmt.Sprintf("epoch=%d shedding=%d", v.Epoch, len(n.hosts)),
		})
		for name, h := range n.hosts {
			h.stop()
			delete(n.hosts, name)
		}
		n.primaryOf = make(map[string]bool)
		n.pendingAdd = make(map[string]bool)
		n.inXfers = make(map[uint64]*inboundXfer)
		n.synced = false
		n.syncRequested = true
		n.live = slices.Clone(v.Members)
		n.multicast(&replication.Envelope{Kind: replication.KSyncRequest, Node: n.addr})
		return
	}
	var dead []string
	for _, prev := range n.live {
		if !slices.Contains(v.Members, prev) {
			dead = append(dead, prev)
		}
	}
	n.live = slices.Clone(v.Members)
	for _, node := range dead {
		n.logger().Info("processor failed", "node", node)
		// Local, not ordered: which peers count as newly dead depends on
		// the previous membership this node happens to have seen.
		n.recorder.Record(obs.Event{
			Type: obs.EventProcessorFail, Seq: v.StartSeq, Node: node,
			Detail: fmt.Sprintf("epoch=%d", v.Epoch),
		})
		for _, name := range n.table.NodeFailed(node) {
			n.audit.MemberRemoved(name, node)
			n.resetSignal(recoveredKey(name, node))
			n.resetSignal(promotedKey(name, node))
			n.signal(removedKey(name, node))
			n.reconcile(name)
		}
	}
}

// reconcile reacts to a membership change of one group: primary
// promotion, and re-triggering a state capture whose donor died.
func (n *Node) reconcile(name string) {
	g, ok := n.table.Get(name)
	if !ok {
		return
	}
	h := n.hosts[name]
	isPrimary := g.IsPrimary(n.addr)
	wasPrimary := n.primaryOf[name]
	n.primaryOf[name] = isPrimary
	if h != nil && isPrimary && !wasPrimary && g.Spec.Props.Style != ftcorba.Active {
		// This backup is promoted: replay the log (paper §3.2/§3.3).
		h.q.push(dispatchItem{kind: itemPromote})
	}
	// If someone is still recovering and the donor died, the new first
	// operational member must capture again.
	hasRecovering := false
	for _, m := range g.Members {
		if m.State == replication.MemberRecovering {
			hasRecovering = true
			break
		}
	}
	if hasRecovering && isPrimary && h != nil && !h.recovering {
		h.q.push(dispatchItem{kind: itemCapture, xferID: n.nextXfer()})
	}
}

// --- envelope handling (the replicated state machine) ---

// handleEnvelope applies one delivered envelope at its agreed position
// seq in the total order. Membership, recovery and checkpoint envelopes
// leave seq-stamped ordered events in the flight recorder; the request
// and reply hot paths record nothing.
func (n *Node) handleEnvelope(seq uint64, env *replication.Envelope) {
	switch env.Kind {
	case replication.KRequest:
		n.handleRequest(seq, env)
	case replication.KReply:
		n.spans.MarkOpen(env.Trace, obs.SpanReplyOrdered)
		n.settleReply(env)
		if ce := n.clientEntityIfExists(env.Conn.Client); ce != nil {
			ce.deliverReply(env)
		}
	case replication.KCreateGroup:
		n.handleCreate(seq, env)
	case replication.KRemoveMember:
		n.handleRemove(seq, env)
	case replication.KAddMember:
		n.handleAdd(seq, env)
	case replication.KSetState:
		n.handleSetState(seq, env)
	case replication.KStateChunk:
		n.handleStateChunk(env)
	case replication.KStateManifest:
		n.handleStateManifest(seq, env)
	case replication.KStateRetransmit:
		n.handleStateRetransmit(env)
	case replication.KCheckpoint:
		n.handleCheckpoint(seq, env)
	case replication.KAudit:
		n.handleAudit(seq, env)
	case replication.KSyncRequest:
		if env.Node != n.addr {
			// Snapshot at this position; every synced node answers (the
			// requester uses the first, identical, copy).
			n.multicast(&replication.Envelope{
				Kind:    replication.KSyncState,
				Node:    env.Node,
				Payload: n.table.EncodeTable(),
			})
		}
	case replication.KSyncState:
		// Already synced: someone else's snapshot.
	}
}

func (n *Node) handleRequest(seq uint64, env *replication.Envelope) {
	n.tracer.Hop(env.Trace, n.addr, obs.HopOrdered)
	n.spans.Annotate(env.Trace, env.Group)
	n.spans.MarkSeq(env.Trace, obs.SpanOrdered, seq)
	g, ok := n.table.Get(env.Group)
	if !ok {
		return
	}
	h := n.hosts[env.Group]
	if h == nil {
		return
	}
	execute := true
	if g.Spec.Props.Style != ftcorba.Active {
		// Passive replication: only the primary executes; backups log.
		execute = g.IsPrimary(n.addr)
	}
	h.q.push(dispatchItem{kind: itemRequest, env: env, execute: execute, holdReply: n.leaderAnswers(g)})
}

// leaderAnswers reports whether this node's replica of g gives backup
// replies: g is actively replicated and, under leader ordering, the
// leader — another node — hosts an operational replica of it. The
// leader delivers every request first, so its replica answers first.
func (n *Node) leaderAnswers(g *replication.Group) bool {
	leader := n.proc.Leader()
	if g.Spec.Props.Style != ftcorba.Active || leader == "" || leader == n.addr {
		return false
	}
	for _, m := range g.Members {
		if m.Node == leader {
			return m.State == replication.MemberOperational
		}
	}
	return false
}

func (n *Node) handleCreate(seq uint64, env *replication.Envelope) {
	spec, err := replication.DecodeSpec(env.Payload)
	if err != nil {
		return
	}
	g, err := n.table.Create(spec)
	if err != nil {
		// Duplicate creation: unblock any waiter anyway.
		n.signal("create:" + spec.Name)
		return
	}
	n.recorder.Record(obs.Event{
		Type: obs.EventGroupCreate, Seq: seq, Ordered: true, Group: spec.Name,
		Detail: fmt.Sprintf("style=%s nodes=%s",
			spec.Props.Style.String(), strings.Join(spec.Nodes, ",")),
	})
	n.groupsMu.Lock()
	n.groupSet[spec.Name] = &g.Spec
	n.groupsMu.Unlock()

	for _, m := range g.Members {
		// A member exists (again): un-latch its removal signal so later
		// kills wait for their own removal, not a stale one.
		n.resetSignal(removedKey(spec.Name, m.Node))
	}
	if g.HasMember(n.addr) {
		withInstance := spec.Props.Style != ftcorba.ColdPassive || g.IsPrimary(n.addr)
		h, err := newReplicaHost(n, spec.Name, spec.Props.Style, withInstance, false)
		if err == nil {
			h.disableORBStateTransfer = n.disableORBStateTransfer.Load()
			h.log.SetPolicy(spec.Props.CheckpointEveryN, spec.Props.CheckpointInterval, time.Now())
			n.hosts[spec.Name] = h
			n.primaryOf[spec.Name] = g.IsPrimary(n.addr)
			n.startMonitor(h, spec.Props.FaultMonitoringInterval)
			n.logger().Info("replica hosted", "group", spec.Name,
				"style", spec.Props.Style.String(), "primary", g.IsPrimary(n.addr))
		}
	}
	n.signal("create:" + spec.Name)
}

func (n *Node) handleRemove(seq uint64, env *replication.Envelope) {
	removed, err := n.table.RemoveMember(env.Group, env.Node)
	if err != nil {
		return
	}
	if removed {
		n.recorder.Record(obs.Event{
			Type: obs.EventMemberRemove, Seq: seq, Ordered: true,
			Group: env.Group, Node: env.Node,
		})
	}
	if removed && env.Node == n.addr {
		if h := n.hosts[env.Group]; h != nil {
			h.stop()
			delete(n.hosts, env.Group)
		}
		delete(n.primaryOf, env.Group)
		n.logger().Info("replica removed", "group", env.Group)
	}
	if removed {
		n.audit.MemberRemoved(env.Group, env.Node)
		n.resetSignal(recoveredKey(env.Group, env.Node))
		n.resetSignal(promotedKey(env.Group, env.Node))
		n.reconcile(env.Group)
	}
	n.signal(removedKey(env.Group, env.Node))
}

func (n *Node) handleAdd(seq uint64, env *replication.Envelope) {
	delete(n.pendingAdd, env.Group)
	g, err := n.table.AddRecovering(env.Group, env.Node)
	if err != nil {
		return
	}
	n.resetSignal(removedKey(env.Group, env.Node))
	_, hasDonorNow := g.Primary()
	// This position is the recovery's synchronization point (Figure 5
	// step i): every node records it identically.
	n.recorder.Record(obs.Event{
		Type: obs.EventMemberAdd, Seq: seq, Ordered: true,
		Group: env.Group, Node: env.Node, XferID: env.XferID,
		Detail: fmt.Sprintf("donor=%t", hasDonorNow),
	})
	if env.Node == n.addr {
		// Figure 5 step (i): this position is the synchronization point;
		// the new replica enqueues everything from here on — unless no
		// operational member exists anywhere (total group loss): then
		// there is no state to wait for, and the new replica starts from
		// its type's initial state immediately.
		recovering := hasDonorNow
		withInstance := g.Spec.Props.Style != ftcorba.ColdPassive || !hasDonorNow
		h, err := newReplicaHost(n, env.Group, g.Spec.Props.Style, withInstance, recovering)
		if err == nil {
			h.disableORBStateTransfer = n.disableORBStateTransfer.Load()
			h.log.SetPolicy(g.Spec.Props.CheckpointEveryN, g.Spec.Props.CheckpointInterval, time.Now())
			n.hosts[env.Group] = h
			n.primaryOf[env.Group] = !hasDonorNow
			if !recovering {
				n.logger().Info("replica restarted from initial state (total group loss)",
					"group", env.Group)
				n.startMonitor(h, g.Spec.Props.FaultMonitoringInterval)
			}
		}
	}
	if !hasDonorNow {
		// Everyone marks the lone member operational at this position.
		if err := n.table.MarkOperational(env.Group, env.Node); err == nil {
			n.signal(recoveredKey(env.Group, env.Node))
			n.reconcile(env.Group)
		}
		return
	}
	donor, hasDonor := g.Primary()
	if hasDonor && donor == n.addr {
		if h := n.hosts[env.Group]; h != nil && !h.recovering {
			// Figure 5 steps (i)–(iii): the donor's dispatcher performs
			// get_state() at this position in its serial queue.
			h.q.push(dispatchItem{kind: itemCapture, xferID: env.XferID})
		}
	} else if g.Spec.Props.Style != ftcorba.Active && env.Node != n.addr {
		// Passive backups mark this capture's position so the coming
		// set_state clears only the log entries it subsumes.
		if h := n.hosts[env.Group]; h != nil && !h.recovering {
			h.q.push(dispatchItem{kind: itemCheckpointMark, xferID: env.XferID})
		}
	}
}

func (n *Node) handleSetState(seq uint64, env *replication.Envelope) {
	g, ok := n.table.Get(env.Group)
	if !ok {
		return
	}
	bundle, err := recovery.DecodeBundle(env.Payload)
	if err != nil {
		return
	}
	// The delivered set_state is the point in the total order at which
	// every recovering member is cured (Figure 5 step v).
	n.recorder.Record(obs.Event{
		Type: obs.EventSetState, Seq: seq, Ordered: true,
		Group: env.Group, Node: env.Node, XferID: env.XferID,
		Value: int64(len(bundle.AppState)),
	})
	// Every recovering member is cured by this state (they all held their
	// queues from their own synchronization points; duplicate suppression
	// makes the replayed overlap idempotent).
	for _, m := range g.Members {
		if m.State != replication.MemberRecovering {
			continue
		}
		if err := n.table.MarkOperational(env.Group, m.Node); err != nil {
			continue
		}
		if m.Node == n.addr {
			if h := n.hosts[env.Group]; h != nil && h.recovering {
				h.recovering = false
				select {
				case h.stateCh <- stateDelivery{bundle: bundle, xferID: env.XferID}:
				default:
				}
				// The replica is (about to be) operational: begin pull
				// monitoring it.
				n.startMonitor(h, g.Spec.Props.FaultMonitoringInterval)
			}
		} else {
			// Remote recovery completion is observable here (the precise
			// reinstatement is signaled locally by the dispatcher).
			n.signal(recoveredKey(env.Group, m.Node))
		}
		n.reconcile(env.Group)
	}
	// Operational passive backups absorb the checkpoint (warm: into the
	// instance; cold: into the log).
	if env.Node != n.addr && g.Spec.Props.Style != ftcorba.Active && !g.IsPrimary(n.addr) {
		if h := n.hosts[env.Group]; h != nil && !h.recovering {
			h.q.push(dispatchItem{kind: itemApplyCheckpoint, bundle: bundle, xferID: env.XferID})
		}
	}
}

func (n *Node) handleCheckpoint(seq uint64, env *replication.Envelope) {
	g, ok := n.table.Get(env.Group)
	if !ok || g.Spec.Props.Style == ftcorba.Active {
		return
	}
	// Recorded before any host-local checks: the marker's position is
	// agreed; whether this node hosts a replica is not.
	n.recorder.Record(obs.Event{
		Type: obs.EventCheckpoint, Seq: seq, Ordered: true,
		Group: env.Group, XferID: env.XferID,
	})
	h := n.hosts[env.Group]
	if h == nil || h.recovering {
		return
	}
	if g.IsPrimary(n.addr) {
		h.q.push(dispatchItem{kind: itemCapture, xferID: env.XferID, checkpoint: true})
	} else {
		// Backups mark the capture position (see itemCheckpointMark).
		h.q.push(dispatchItem{kind: itemCheckpointMark, xferID: env.XferID})
	}
}

// --- live consistency audit ---

// handleAudit evaluates the consistency audit at the envelope's agreed
// position. An AuditMark fixes an epoch (identified by the mark's own
// delivery seq): the collector learns who must report, and this node's
// replica — if it is a reporter — digests its state at exactly this point
// in its serial dispatch queue. An AuditReport feeds the collector's
// epoch-by-epoch matching. Members recovering at the mark's position are
// exempt from expectations until their manifest sync point; their held
// queues still digest at the correct logical position, so their late
// reports participate in matching and must agree.
func (n *Node) handleAudit(seq uint64, env *replication.Envelope) {
	if n.audit == nil {
		return
	}
	g, ok := n.table.Get(env.Group)
	if !ok {
		return
	}
	switch env.OpID {
	case replication.AuditMark:
		// Expected reporters at this position — deterministic from the
		// table: operational members; for passive styles only the primary
		// (backups legitimately hold checkpoint-stale state, so their
		// digests are not comparable).
		var expected []string
		for _, m := range g.Members {
			if m.State != replication.MemberOperational {
				continue
			}
			if g.Spec.Props.Style != ftcorba.Active && !g.IsPrimary(m.Node) {
				continue
			}
			expected = append(expected, m.Node)
		}
		n.noteAuditAlarms(n.audit.BeginEpoch(env.Group, seq, expected, time.Now()))
		report := g.HasMember(n.addr)
		if g.Spec.Props.Style != ftcorba.Active {
			report = g.IsPrimary(n.addr)
		}
		if h := n.hosts[env.Group]; report && h != nil {
			h.q.push(dispatchItem{kind: itemAuditCapture, xferID: seq})
		}
	case replication.AuditReport:
		rec, err := replication.DecodeAuditRecord(env.Payload)
		if err != nil {
			return
		}
		n.noteAuditAlarms(n.audit.Observe(obs.AuditObservation{
			Group: env.Group, Node: env.Node, Epoch: rec.Epoch, Seq: seq,
			Digest: rec.Digest, LSN: rec.LSN, StateBytes: rec.StateBytes,
		}))
	}
}

// noteAuditAlarms surfaces collector alarms: counters, flight-recorder
// events (local class — a node that synchronized mid-stream holds a
// shorter matching history, so alarm sets may legitimately differ), and
// the log.
func (n *Node) noteAuditAlarms(alarms []obs.AuditAlarm) {
	for _, a := range alarms {
		var ev string
		switch a.Kind {
		case obs.AuditDivergence:
			n.counters.auditDivergences.Add(1)
			ev = obs.EventAuditDivergence
		case obs.AuditLag:
			n.counters.auditLags.Add(1)
			ev = obs.EventAuditLag
		case obs.AuditStall:
			n.counters.auditStalls.Add(1)
			ev = obs.EventAuditStall
		default:
			continue
		}
		n.recorder.Record(obs.Event{
			Type: ev, Group: a.Group, Node: a.Node,
			Value: int64(a.Epoch), Detail: a.Detail,
		})
		n.logger().Warn("consistency audit alarm", "kind", a.Kind,
			"group", a.Group, "node", a.Node, "epoch", a.Epoch, "detail", a.Detail)
	}
}

// startMonitor begins pull-monitoring a hosted replica instance at its
// FaultMonitoringInterval (disabled when the interval is zero, and for
// log-only cold backups).
func (n *Node) startMonitor(h *replicaHost, interval time.Duration) {
	if interval <= 0 || h.replica == nil || h.monitor != nil {
		return
	}
	h.monitor = faultdetect.StartMonitor(h.group, n.addr, interval, 0, h.probeAlive, n.faults)
}

// --- periodic manager duties ---

func (n *Node) sweep(now time.Time) {
	// Sample the dispatch backlog (loop-owned map, so sampled here rather
	// than at scrape time). It spikes during the enqueue-while-recovering
	// window of §3.3.
	depth := 0
	for _, h := range n.hosts {
		depth += h.q.size()
	}
	n.dispatchDepth.Set(int64(depth))
	if !n.synced {
		if n.syncWaiting && now.Sub(n.syncReqAt) > n.cfg.SyncSelfDeclare {
			// Nobody answered: we are the first stateful node (cold
			// start). Start from an empty table plus whatever control
			// traffic we buffered.
			n.becomeSynced(replication.NewTable(), n.syncBuf)
		}
		return
	}
	n.sweepXfers(now)
	if n.audit != nil {
		n.noteAuditAlarms(n.audit.SweepStalls(now, auditStallFactor*n.cfg.AuditInterval))
	}
	for _, name := range n.table.Names() {
		g, _ := n.table.Get(name)
		props := g.Spec.Props

		// Live consistency audit: the primary's node multicasts the epoch
		// marker. Scheduling is local but evaluation is not — the mark's
		// delivery position defines the epoch identically everywhere.
		if n.audit != nil && g.IsPrimary(n.addr) {
			if due, ok := n.auditDue[name]; !ok {
				// First sweep as primary: full interval before the first
				// mark, so creation and promotion don't burst markers.
				n.auditDue[name] = now.Add(n.cfg.AuditInterval)
			} else if now.After(due) {
				n.auditDue[name] = now.Add(n.cfg.AuditInterval)
				n.counters.auditMarks.Add(1)
				n.multicast(&replication.Envelope{
					Kind:  replication.KAudit,
					Group: name,
					Node:  n.addr,
					OpID:  replication.AuditMark,
				})
			}
		}

		// Checkpoint scheduler (paper §5: frequency fixed per object at
		// deployment, extended with an every-N-messages trigger): the
		// primary's node multicasts the marker when its replica's log
		// policy says one is due — time elapsed or messages handled,
		// whichever fires first.
		if props.Style != ftcorba.Active && g.IsPrimary(n.addr) {
			if h := n.hosts[name]; h != nil && !h.recovering && h.log.CheckpointDue(now) {
				h.log.NoteCheckpoint(now)
				n.multicast(&replication.Envelope{
					Kind:   replication.KCheckpoint,
					Group:  name,
					XferID: n.nextXfer(),
				})
			}
		}

		// Resource Manager (paper §2): maintain MinimumNumberReplicas.
		if len(g.Members) < props.MinReplicas && !n.pendingAdd[name] {
			if target, ok := g.RecoveryTarget(n.live); ok && target == n.addr {
				n.pendingAdd[name] = true
				n.multicast(&replication.Envelope{
					Kind:   replication.KAddMember,
					Group:  name,
					Node:   n.addr,
					XferID: n.nextXfer(),
				})
			}
		}
	}
}
