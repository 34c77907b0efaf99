package cluster

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
)

// shmTransport carries MPI over the cluster's coherent shared-memory
// segment: every host maps one region, a message is a store burst into the
// receiver's mailbox, and the only wire is the attachment link (ShmLatency
// visibility plus ShmPerByte copy bandwidth). There is no kernel, no
// framing and no credit scheme — the segment itself is the reserved
// memory, so senders never block on flow control.
//
// Ordering: stores from one host drain through its write buffer in issue
// order, so deliveries to a given destination are kept non-overtaking by
// tracking the last arrival time per (sender, destination) pair and never
// scheduling an earlier one. The arrival delay is always at least
// ShmLatency, which is also the shard lookahead for shm worlds, so the
// same model runs unchanged on the sharded kernel.
//
// The segment is also the cluster's native one-sided fabric: RMAPut /
// RMAGet / RMAAccumulate apply directly to the target window in delivery
// context — the CXL-style analogue of the Meiko's remote-store hardware —
// so shm windows never fall back to the matched-send emulation.
type shmTransport struct {
	cl    *atm.Cluster
	eng   *core.Engine
	s     *sim.Scheduler // this host's (lane) scheduler
	rank  int
	eager int
	peers []*shmTransport

	inbox core.Inbox

	// lastArrival[dst] is the latest delivery time already scheduled
	// toward dst; successors are clamped to it (write-buffer FIFO).
	lastArrival map[int]sim.Time
}

var (
	_ core.Transport    = (*shmTransport)(nil)
	_ core.RemoteMemory = (*shmTransport)(nil)
)

func newShmTransport(cl *atm.Cluster, eng *core.Engine, rank, eager int, peers []*shmTransport) *shmTransport {
	return &shmTransport{
		cl:          cl,
		eng:         eng,
		s:           cl.SchedOf(rank),
		rank:        rank,
		eager:       eager,
		peers:       peers,
		lastArrival: make(map[int]sim.Time),
	}
}

// shmEngineCosts keeps the SGI's user-level matching charges (the CPU is
// the same 133 MHz Indy) but drops the syscall-sized send/receive
// overheads to a store-burst setup cost: no kernel sits between the MPI
// library and the segment.
func shmEngineCosts() core.EngineCosts {
	return core.EngineCosts{
		Match:        18 * time.Microsecond,
		CopyBase:     2 * time.Microsecond,
		CopyPerByte:  60 * time.Nanosecond,
		SendOverhead: 2 * time.Microsecond,
		RecvOverhead: 2 * time.Microsecond,
	}
}

// shmPollCost is the per-packet mailbox check (a cached flag read).
const shmPollCost = 500 * time.Nanosecond

// xferDelay is the store-burst visibility delay for n payload bytes,
// clamped so deliveries toward dst never overtake an earlier one.
func (t *shmTransport) xferDelay(dst, n int) sim.Duration {
	now := t.s.Now()
	arrival := now + sim.Time(t.cl.Costs.ShmLatency) + sim.Time(sim.Duration(n)*t.cl.Costs.ShmPerByte)
	if last, ok := t.lastArrival[dst]; ok && last > arrival {
		arrival = last
	}
	t.lastArrival[dst] = arrival
	return sim.Duration(arrival - now)
}

// deliver ships pkt into dst's mailbox after the FIFO-clamped store delay
// for n payload bytes. Payload storage must be a GC-owned snapshot made on
// this lane (Pool nil): the packet may cross lanes.
func (t *shmTransport) deliver(dst, n int, pkt core.Packet) {
	t.s.RouteAfter(t.cl.LaneOf(dst), t.xferDelay(dst, n), func() {
		peer := t.peers[dst]
		if peer == nil {
			panic(fmt.Sprintf("cluster/shm: no endpoint for rank %d", dst))
		}
		peer.inbox.Push(pkt)
		peer.eng.Wake()
	})
}

// snapshot copies a payload into GC-owned storage for cross-lane delivery.
func snapshot(data []byte) []byte {
	s := make([]byte, len(data))
	copy(s, data)
	return s
}

// MaxEager implements core.Transport.
func (t *shmTransport) MaxEager() int { return t.eager }

// Send implements core.Transport. With no flow control the segment never
// queues: eager payloads ship with the envelope, larger ones open the
// RTS/CTS rendezvous so the payload lands straight in the posted buffer.
func (t *shmTransport) Send(p *sim.Proc, req *core.Request) {
	if req.Env.Count > t.eager {
		t.deliver(req.Env.Dest, 0, core.Packet{Kind: core.PktRTS, Env: req.Env})
		return
	}
	t.deliver(req.Env.Dest, len(req.Buf), core.Packet{Kind: core.PktEager, Env: req.Env, Data: snapshot(req.Buf)})
	t.eng.SendDone(req)
}

// Accept implements core.Transport: CTS back to the sender; the payload
// arrives as PktData carrying the receiver request id.
func (t *shmTransport) Accept(p *sim.Proc, msg *core.InMsg, req *core.Request) {
	t.deliver(msg.Env.Source, 0, core.Packet{Kind: core.PktCTS, Env: msg.Env, ReqID: msg.Env.SendID, Handle: req.ID})
}

// SendPayload implements core.Transport: the CTS surfaced at the sender;
// burst the payload into the receiver's posted buffer.
func (t *shmTransport) SendPayload(p *sim.Proc, req *core.Request, pkt *core.Packet) {
	t.deliver(req.Env.Dest, len(req.Buf), core.Packet{Kind: core.PktData, Env: req.Env, ReqID: pkt.Handle, Data: snapshot(req.Buf)})
	t.eng.SendDone(req)
}

// Control implements core.Transport.
func (t *shmTransport) Control(p *sim.Proc, dst int, kind core.PacketKind, env core.Envelope) {
	t.deliver(dst, 0, core.Packet{Kind: kind, Env: env, ReqID: env.SendID})
}

// Release implements core.Transport: the segment has no credit scheme, so
// freed bounce space needs no message back to the sender.
func (t *shmTransport) Release(p *sim.Proc, src int, n int) {}

// Poll implements core.Transport.
func (t *shmTransport) Poll(p *sim.Proc) *core.Packet {
	if t.inbox.Len() == 0 {
		return nil
	}
	t.eng.Acct().Charge(p, core.CostProtocol, shmPollCost)
	return t.inbox.Pop()
}

// Pending implements core.Transport.
func (t *shmTransport) Pending() bool { return t.inbox.Len() > 0 }

// ------------------------------------------------------------ RemoteMemory --
//
// One-sided operations bypass the mailbox entirely: the origin stores into
// (or reads from) the target window across the segment, the apply runs in
// delivery context on the target's lane, and the completion ack crosses
// back before done fires. RMA transfers are unordered within an epoch
// (fence/lock synchronization orders them), so they use the plain
// store-burst delay without the mailbox's FIFO clamp.

// rmaDelay is the unclamped store-burst delay for n bytes.
func (t *shmTransport) rmaDelay(n int) sim.Duration {
	return t.cl.Costs.ShmLatency + sim.Duration(n)*t.cl.Costs.ShmPerByte
}

// RMAPut implements core.RemoteMemory.
func (t *shmTransport) RMAPut(p *sim.Proc, dst, win, off int, data []byte, done func()) {
	snap := snapshot(data)
	home := t.cl.LaneOf(t.rank)
	t.s.RouteAfter(t.cl.LaneOf(dst), t.rmaDelay(len(snap)), func() {
		peer := t.peers[dst]
		peer.eng.Win(win).ApplyPut(off, snap)
		peer.s.RouteAfter(home, t.rmaDelay(0), done)
	})
}

// RMAGet implements core.RemoteMemory.
func (t *shmTransport) RMAGet(p *sim.Proc, dst, win, off int, buf []byte, done func()) {
	home := t.cl.LaneOf(t.rank)
	t.s.RouteAfter(t.cl.LaneOf(dst), t.rmaDelay(0), func() {
		peer := t.peers[dst]
		snap := make([]byte, len(buf))
		peer.eng.Win(win).ReadInto(off, snap)
		peer.s.RouteAfter(home, t.rmaDelay(len(snap)), func() {
			copy(buf, snap)
			done()
		})
	})
}

// RMAAccumulate implements core.RemoteMemory.
func (t *shmTransport) RMAAccumulate(p *sim.Proc, dst, win, off int, data []byte, op core.RMAOp, done func()) {
	snap := snapshot(data)
	home := t.cl.LaneOf(t.rank)
	t.s.RouteAfter(t.cl.LaneOf(dst), t.rmaDelay(len(snap)), func() {
		peer := t.peers[dst]
		peer.eng.Win(win).ApplyAccumulate(off, snap, op)
		peer.s.RouteAfter(home, t.rmaDelay(0), done)
	})
}
