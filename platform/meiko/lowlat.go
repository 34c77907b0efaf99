package meiko

import (
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/meiko"
	"repro/internal/sim"
)

// envelopeTxnBytes is the control payload of a low-latency envelope
// transaction (the engine envelope serialized into the transaction).
const envelopeTxnBytes = 20

// ctrlTxnBytes is a small control transaction (CTS, slot-free, sync ack).
const ctrlTxnBytes = 8

// slotPollCost is the SPARC cost to scan the arrival slots in Poll.
const slotPollCost = 6000 // ns

// lowlatTransport implements core.Transport on raw Meiko transactions and
// DMAs — the paper's low-latency device. Eager messages ride a single
// transaction into the receiver's preallocated per-sender envelope slot
// (one outstanding message per (sender, receiver) pair, §4.1); larger
// messages announce themselves with an envelope transaction and move by a
// sender-Elan DMA once the receiver matches — with no SPARC involvement at
// the sender after the CTS, unlike the cluster port.
type lowlatTransport struct {
	m    *meiko.Machine
	node *meiko.Node
	eng  *core.Engine
	max  int
	all  []*lowlatTransport // indexed by rank
	msgs *sim.Freelist[llMsg]

	inbox core.Inbox

	// Envelope-slot flow control through the shared flow layer: at most
	// `slots` outstanding envelopes per destination (the paper allocates
	// exactly one, §4.1), each envelope — eager or rendezvous — costing one
	// slot, with queued successors held in issue order.
	slots int
	fc    *flow.Queue

	// Rendezvous sends awaiting their CTS, by send request id.
	rndv map[int64]*core.Request

	// Hardware-broadcast state.
	bcSeq   int    // last broadcast sequence delivered here
	bcData  []byte // payload of that broadcast
	bcCond  *sim.Cond
	bcReady int // ready tokens collected (when acting as root)
}

func newLowlatTransport(m *meiko.Machine, node *meiko.Node, eng *core.Engine, eager, slots int, all []*lowlatTransport, msgs *sim.Freelist[llMsg]) *lowlatTransport {
	if slots < 1 {
		slots = 1
	}
	t := &lowlatTransport{
		m:      m,
		node:   node,
		eng:    eng,
		max:    eager,
		slots:  slots,
		all:    all,
		msgs:   msgs,
		rndv:   make(map[int64]*core.Request),
		bcCond: sim.NewCond(node.S),
	}
	t.fc = flow.NewQueue(len(all), slots, slots,
		func(*core.Request) int { return 1 }, eng.Acct())
	return t
}

var _ core.Transport = (*lowlatTransport)(nil)

// MaxEager implements core.Transport.
func (t *lowlatTransport) MaxEager() int { return t.max }

// llMsg is one packet crossing the machine in a SPARC-issued transaction:
// an envelope, a control message, or a slot-free acknowledgement
// (PktCredit, naming the freed slot's receiver in Env.Source). It is the
// transaction's deliver Handler, drawn on the sender's lane and returned
// to the receiver's list before the packet lands.
type llMsg struct {
	to  *lowlatTransport
	pkt core.Packet
}

// Fire implements sim.Handler; it runs on the receiver's lane.
func (m *llMsg) Fire() {
	to, pkt := m.to, m.pkt
	*m = llMsg{}
	to.msgs.Put(to.node.S, m)
	if pkt.Kind == core.PktCredit {
		to.slotFreed(pkt.Env.Source)
		return
	}
	to.inbox.Push(pkt)
	to.eng.Wake()
}

// ship sends pkt to rank dst in an nbytes transaction.
func (t *lowlatTransport) ship(dst, nbytes int, pkt core.Packet) {
	m := t.msgs.Get(t.node.S)
	*m = llMsg{to: t.all[dst], pkt: pkt}
	t.node.Txn(dst, nbytes, false, m)
}

// Send implements core.Transport. Every envelope — eager or rendezvous —
// occupies the destination's single envelope slot (§4.1's per-sender slot),
// which also totally orders the pair's envelopes; when the slot is busy the
// message queues in the flow layer and is transmitted, in issue order, as
// slot-free acknowledgements return.
func (t *lowlatTransport) Send(p *sim.Proc, req *core.Request) {
	if !t.fc.Offer(req) {
		return
	}
	t.eng.Acct().Charge(p, core.CostProtocol, t.m.Costs.TxnIssue)
	t.transmit(req)
}

// transmit ships one envelope (proc or event context); the slot for
// req.Env.Dest must already be held.
func (t *lowlatTransport) transmit(req *core.Request) {
	if req.Err() != nil {
		// Failed while queued on the envelope slot — the destination died
		// (or this rank turned fatal). Done() is the wrong guard: a
		// buffered send completes at Isend time yet must still ship.
		return
	}
	env := req.Env
	dst := env.Dest
	if env.Count > t.max {
		t.rndv[env.SendID] = req
		t.eng.Acct().Incr("rndv", 1)
		t.ship(dst, envelopeTxnBytes, core.Packet{Kind: core.PktRTS, Env: env})
		// The envelope slot frees when the receiver consumes the RTS
		// (see Poll); local completion comes with the DMA.
		return
	}
	t.eng.Acct().Incr("eager", 1)
	// The per-sender envelope slot is modeled by a bounce buffer drawn
	// from this engine's pool and owned by the receiving engine's, which
	// recycles it after the copy-out that frees the slot; each pool stays
	// on its own rank's lane (see core.BufPool).
	data := t.eng.Pool().Get(len(req.Buf))
	copy(data, req.Buf)
	t.ship(dst, envelopeTxnBytes+len(data), core.Packet{Kind: core.PktEager, Env: env, Data: data, Pool: t.all[dst].eng.Pool()})
	t.eng.SendDone(req)
}

// Accept implements core.Transport: the receiver matched an RTS. The CTS
// transaction goes back to the sender's Elan, which starts the payload DMA
// autonomously — the sending SPARC never runs.
func (t *lowlatTransport) Accept(p *sim.Proc, msg *core.InMsg, req *core.Request) {
	c := t.m.Costs
	t.eng.Acct().Charge(p, core.CostProtocol, c.TxnIssue)
	src := msg.Env.Source
	env := msg.Env
	sender := t.all[src]
	recvEng := t.eng
	t.node.Txn(src, ctrlTxnBytes, false, sim.Func(func() {
		sreq := sender.rndv[env.SendID]
		if sreq == nil {
			return
		}
		delete(sender.rndv, env.SendID)
		// The CTS implies the receiver matched: synchronous-mode sends are
		// acknowledged here, since the engine never sees the CTS.
		sender.eng.SendAcked(sreq)
		n := env.Count
		if n > len(req.Buf) {
			n = len(req.Buf)
		}
		// The DMA landing event copies the payload on the receiver's lane,
		// concurrent (same epoch) with sender-lane events that may reuse the
		// buffer after SendDone — so cross-lane transfers snapshot it here,
		// on the sender's lane, while the send still owns it.
		payload := sreq.Buf
		if sender.node.S != t.node.S {
			snap := make([]byte, n)
			copy(snap, sreq.Buf[:n])
			payload = snap
		}
		sender.node.DMA(recvEng.Rank(), n,
			func() { sender.eng.SendDone(sreq) },
			func() {
				copy(req.Buf[:n], payload[:n])
				recvEng.RecvDataDone(req, env)
			})
	}))
}

// SendPayload implements core.Transport. CTS packets never surface to the
// engine on this platform (the Elan consumes them), so this is never
// reached.
func (t *lowlatTransport) SendPayload(p *sim.Proc, req *core.Request, pkt *core.Packet) {
}

// Control implements core.Transport (synchronous-mode acks).
func (t *lowlatTransport) Control(p *sim.Proc, dst int, kind core.PacketKind, env core.Envelope) {
	c := t.m.Costs
	t.eng.Acct().Charge(p, core.CostProtocol, c.TxnIssue)
	t.ship(dst, ctrlTxnBytes, core.Packet{Kind: kind, Env: env, ReqID: env.SendID})
}

// Release implements core.Transport. The envelope slot was already
// returned when Poll copied the message out of the slot area (the paper's
// design: the library buffers data temporarily at the receiver, and the
// per-sender slot holds only the newest envelope), so consuming the bounce
// copy needs no further transport action.
func (t *lowlatTransport) Release(p *sim.Proc, src int, n int) {}

// PeerDown implements core.PeerFencer: forget rendezvous sends toward the
// dead rank (their CTS can never arrive — the engine already failed the
// requests) and restore the envelope slots it held, since a corpse never
// returns slot-free acknowledgements.
func (t *lowlatTransport) PeerDown(rank int) {
	for id, req := range t.rndv {
		if req.Env.Dest == rank {
			delete(t.rndv, id)
		}
	}
	t.fc.DropDst(rank, t.slots, nil)
	t.eng.Wake()
	// Procs parked in the hardware-broadcast slot wait recheck the dead
	// set once woken (see HWBcast).
	t.bcCond.Broadcast()
}

// FatalWake wakes procs parked on transport-owned conditions when this
// rank's own engine turns fatal, so a killed process fails out of the
// hardware broadcast instead of sleeping forever.
func (t *lowlatTransport) FatalWake() { t.bcCond.Broadcast() }

// slotFreed runs at the sender (event context) when a slot-free
// transaction lands: the flow layer either reuses the slot immediately for
// the queued successor or banks it.
func (t *lowlatTransport) slotFreed(dst int) {
	shipped := false
	t.fc.Grant(dst, 1, func(req *core.Request) {
		shipped = true
		t.transmit(req)
	})
	if !shipped {
		t.eng.Wake()
	}
}

// Poll implements core.Transport: scan the slot area for the next
// arrival. Consuming any envelope — eager payload copied to the library's
// buffer, or a rendezvous announcement read out — frees the sender's slot
// with a small acknowledgement transaction, so the pair's next envelope
// may travel while this message waits (possibly unmatched) in the
// unexpected queue.
func (t *lowlatTransport) Poll(p *sim.Proc) *core.Packet {
	if t.inbox.Len() == 0 {
		return nil
	}
	t.eng.Acct().Charge(p, core.CostProtocol, slotPollCost)
	pkt := t.inbox.Pop()
	switch pkt.Kind {
	case core.PktEager, core.PktRTS:
		t.eng.Acct().Charge(p, core.CostProtocol, t.m.Costs.TxnIssue)
		t.ship(pkt.Env.Source, ctrlTxnBytes, core.Packet{Kind: core.PktCredit, Env: core.Envelope{Source: t.eng.Rank()}})
	}
	return pkt
}

// Pending implements core.Transport.
func (t *lowlatTransport) Pending() bool { return t.inbox.Len() > 0 }

// ------------------------------------------------------------ RemoteMemory --
//
// One-sided operations map straight onto the Elan primitives the paper's
// §4 device exposes: a small put is one remote transaction into the
// target's registered region, a large put is a sender-Elan DMA, and in
// both cases the target's Elan — never its SPARC — applies the bytes and
// fires the completion acknowledgement back, so the target process does
// not need to be inside an MPI call for the transfer to complete.

// rmaTxnHdrBytes is the one-sided header riding each RMA transaction or
// DMA announcement: window id, offset, and length.
const rmaTxnHdrBytes = 16

var _ core.RemoteMemory = (*lowlatTransport)(nil)

// rmaSnap snapshots an origin payload on the origin lane. Remote applies
// run in the target lane's event context, concurrent (same epoch) with
// origin-lane events, so the transfer must never share mutable storage
// across lanes; same-lane transfers keep the copy too — it is the modeled
// Elan's copy of the data leaving host memory.
func rmaSnap(data []byte) []byte {
	snap := make([]byte, len(data))
	copy(snap, data)
	return snap
}

// rmaApply lands a put or accumulate at the target (target lane event
// context) and acks back to the origin through the target Elan
// (elanIssued: no SPARC wakeup), firing done on the origin lane.
func (t *lowlatTransport) rmaApply(dst, win, off int, data []byte, op core.RMAOp, done func()) func() {
	me := t.eng.Rank()
	peer := t.all[dst]
	return func() {
		peer.eng.Win(win).ApplyAccumulate(off, data, op)
		peer.node.Txn(me, ctrlTxnBytes, true, sim.Func(done))
	}
}

// RMAPut implements core.RemoteMemory: small payloads ride one remote
// transaction, large ones a sender-Elan DMA.
func (t *lowlatTransport) RMAPut(p *sim.Proc, dst, win, off int, data []byte, done func()) {
	c := t.m.Costs
	snap := rmaSnap(data)
	apply := t.rmaApply(dst, win, off, snap, core.RMAReplace, done)
	if len(snap) <= t.max {
		t.eng.Acct().Charge(p, core.CostProtocol, c.TxnIssue)
		t.node.Txn(dst, rmaTxnHdrBytes+len(snap), false, sim.Func(apply))
		return
	}
	t.eng.Acct().Charge(p, core.CostProtocol, c.DMAIssue)
	t.node.DMA(dst, rmaTxnHdrBytes+len(snap), func() {}, apply)
}

// RMAAccumulate implements core.RemoteMemory: like a put, but the target
// Elan's handler combines instead of stores.
func (t *lowlatTransport) RMAAccumulate(p *sim.Proc, dst, win, off int, data []byte, op core.RMAOp, done func()) {
	c := t.m.Costs
	snap := rmaSnap(data)
	apply := t.rmaApply(dst, win, off, snap, op, done)
	if len(snap) <= t.max {
		t.eng.Acct().Charge(p, core.CostProtocol, c.TxnIssue)
		t.node.Txn(dst, rmaTxnHdrBytes+len(snap), false, sim.Func(apply))
		return
	}
	t.eng.Acct().Charge(p, core.CostProtocol, c.DMAIssue)
	t.node.DMA(dst, rmaTxnHdrBytes+len(snap), func() {}, apply)
}

// RMAGet implements core.RemoteMemory: a request transaction reaches the
// target's Elan, which reads the region and DMAs the bytes back; the
// landing event on the origin lane fills buf and completes the operation.
func (t *lowlatTransport) RMAGet(p *sim.Proc, dst, win, off int, buf []byte, done func()) {
	c := t.m.Costs
	me := t.eng.Rank()
	peer := t.all[dst]
	t.eng.Acct().Charge(p, core.CostProtocol, c.TxnIssue)
	t.node.Txn(dst, rmaTxnHdrBytes, false, sim.Func(func() {
		snap := make([]byte, len(buf))
		peer.eng.Win(win).ReadInto(off, snap)
		peer.node.DMA(me, rmaTxnHdrBytes+len(snap), func() {}, func() {
			copy(buf, snap)
			done()
		})
	}))
}

// LowLatEndpoint is the low-latency engine plus the CS/2 hardware
// broadcast.
type LowLatEndpoint struct {
	*core.Engine
	tr *lowlatTransport
}

var _ core.HWBcaster = (*LowLatEndpoint)(nil)

// HWBcast implements core.HWBcaster using the CS/2 broadcast network: the
// root gathers tiny ready transactions (flow control), then injects the
// payload once; every other node's Elan deposits it into the broadcast
// slot where the waiting SPARC copies it out.
func (ep *LowLatEndpoint) HWBcast(p *sim.Proc, root, ctx int, buf []byte) error {
	t := ep.tr
	c := t.m.Costs
	size := ep.Size()
	if size == 1 {
		return nil
	}
	// The broadcast network reaches every node, so one dead member makes
	// the collective uncompletable: the root would wait forever for the
	// corpse's ready transaction (or a child for a dead root's payload).
	// Fail with the death reason instead of parking — detection is a
	// simultaneous simulated-time event on every survivor, so all ranks
	// take the same branch.
	ftCheck := func() error {
		if err := t.eng.FatalErr(); err != nil {
			return err
		}
		for _, r := range t.eng.DeadRanks() {
			return t.eng.DeadErr(r)
		}
		return nil
	}
	if err := ftCheck(); err != nil {
		return err
	}
	acct := ep.Acct()
	if ep.Rank() != root {
		// Tell the root we are ready to receive, then wait for the
		// broadcast to land in our slot.
		seq := t.bcSeq
		acct.Charge(p, core.CostProtocol, c.TxnIssue)
		t.node.Txn(root, ctrlTxnBytes, false, sim.Func(func() {
			rt := t.all[root]
			rt.bcReady++
			rt.bcCond.Broadcast()
		}))
		for t.bcSeq == seq {
			if err := ftCheck(); err != nil {
				return err
			}
			t.bcCond.Wait(p)
		}
		n := copy(buf, t.bcData)
		acct.Charge(p, core.CostSync, c.ElanSync)
		acct.Charge(p, core.CostCopy, c.CopyBase+sim.Duration(n)*c.CopyPerByte)
		return nil
	}

	// Root: wait for everyone, then broadcast.
	for t.bcReady < size-1 {
		if err := ftCheck(); err != nil {
			return err
		}
		t.bcCond.Wait(p)
	}
	t.bcReady -= size - 1
	acct.Charge(p, core.CostProtocol, c.DMAIssue)
	payload := make([]byte, len(buf))
	copy(payload, buf)
	done := t.node.NewEvent()
	t.node.Broadcast(len(payload), func() { done.Set() }, func(dst *meiko.Node) {
		rt := t.all[dst.ID]
		rt.bcData = payload
		rt.bcSeq++
		rt.bcCond.Broadcast()
	})
	done.Wait(p)
	acct.Incr("hwbcast", 1)
	return nil
}
