package cluster

import (
	"math/bits"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sim"
)

// Extra accounting labels for Table 1's rows.
const (
	acctReadType = "read-type" // first read: the 1-byte message type
	acctReadEnv  = "read-env"  // second read: credit field + envelope
	acctReadData = "read-data" // payload reads
)

// headerBytes is the paper's 25-byte protocol header, shared with the
// other socket transports through the flow layer.
const headerBytes = flow.HeaderBytes

// transport implements core.Transport over the cluster's sockets.
type transport struct {
	cl    *atm.Cluster
	eng   *core.Engine
	rank  int
	size  int
	max   int // eager threshold
	kind  TransportKind
	net   atm.MediumKind
	peers []*transport

	conns []*atm.TCP // TCP mesh (nil diagonal)
	dgram dgramLink  // UDP (reliable layer) or U-Net mode

	// pool recycles frame scratch, eager bounce buffers, and datagram
	// read buffers (the engine's pool, so counters land in the rank's
	// account). All the socket layers copy payloads on Send/Write, so a
	// frame is recyclable as soon as the call returns.
	pool *core.BufPool

	inbox core.Inbox
	rr    int      // round-robin parse start
	ready readySet // TCP peers that may hold unread bytes

	// Credit flow control (sender side): bytes we may still push toward
	// each destination's reserved memory, with queued sends held in issue
	// order by the shared flow layer.
	fc         *flow.Queue
	creditCap  int
	creditCond *sim.Cond
	// Receiver side: freed reservation owed back to each sender.
	owed *flow.Owed

	// Rendezvous state.
	rndvSend   map[int64]*core.Request // sender requests awaiting CTS
	rndvRecv   map[uint32]*rndvRecvSt  // receiver handle -> landing state
	nextHandle uint32
	// RDMA-write rendezvous (MPICH2/InfiniBand style): advertisements of
	// pre-posted rendezvous receives, by destination rank, consumed by the
	// first matching standard/buffered rendezvous send. noRTR pins the
	// two-sided RTS/CTS protocol (the ablation's baseline).
	rtrQ  map[int][]rtrAd
	noRTR bool
	// In-progress inbound Data frames, per source (TCP only): the payload
	// read consumes only what the kernel buffer holds and resumes on later
	// polls, so a receiver never parks mid-frame holding unsent bytes of
	// its own.
	inData []*tcpData

	// Buffered sends whose credits arrived; shipped on the next Poll from
	// the owning process's context.
	pendingShip []*core.Request

	// Ranks fenced by PeerDown: every frame toward them is swallowed —
	// retrying into a dead peer's black hole would otherwise escalate one
	// process failure into link death (RUDP retry exhaustion) or a parked
	// survivor (a TCP window that never reopens).
	dead map[int]bool
}

type rndvRecvSt struct {
	req   *core.Request
	env   core.Envelope // the RTS envelope (chunk headers mangle tag/count)
	got   int           // payload bytes landed so far (UDP chunking)
	want  int           // bytes that fit the posted buffer
	total int           // full message size announced by the RTS

	// RDMA-write rendezvous state: an advertised pre-posted receive must be
	// claimed from the matcher when its direct payload starts arriving. If
	// the claim fails (the receive matched an earlier message meanwhile),
	// the payload accumulates in bounce and re-enters through the matcher
	// as an eager arrival, in its exact stream position.
	rtr     bool
	started bool
	claimed bool
	bounce  []byte
}

// rtrAd is one sender-side record of a peer's pre-posted receive.
type rtrAd struct {
	env core.Envelope // Source = advertising rank; Count = buffer capacity
	aux uint32        // the receiver's landing handle
}

// tcpData tracks one partially-read rendezvous payload on a TCP stream.
type tcpData struct {
	st  *rndvRecvSt
	aux uint32        // the rndvRecv handle, for completion cleanup
	env core.Envelope // the Data frame's header envelope
}

func newTransport(cl *atm.Cluster, eng *core.Engine, rank, size, eager, credit int, kind TransportKind, net atm.MediumKind, peers []*transport) *transport {
	t := &transport{
		cl:         cl,
		eng:        eng,
		rank:       rank,
		size:       size,
		max:        eager,
		kind:       kind,
		net:        net,
		peers:      peers,
		conns:      make([]*atm.TCP, size),
		ready:      make(readySet, (size+63)/64),
		creditCap:  credit,
		creditCond: sim.NewCond(cl.SchedOf(rank)),
		// A quarter of the reservation owed triggers an explicit credit
		// return (one-sided traffic), keeping the pair deadlock-free.
		owed:     flow.NewOwed(size, credit/4),
		rndvSend: make(map[int64]*core.Request),
		rndvRecv: make(map[uint32]*rndvRecvSt),
		rtrQ:     make(map[int][]rtrAd),
		inData:   make([]*tcpData, size),
		pool:     eng.Pool(),
	}
	// Eager messages charge header+payload bytes against the receiver's
	// reservation; rendezvous envelopes are credit-exempt (their payload is
	// flow controlled by the CTS handshake) but still queue in issue order.
	t.fc = flow.NewQueue(size, credit, 0, func(req *core.Request) int {
		if req.Env.Count > t.max {
			return 0
		}
		return headerBytes + req.Env.Count
	}, eng.Acct())
	peers[rank] = t
	return t
}

func (t *transport) attachConn(peer int, c *atm.TCP) {
	t.conns[peer] = c
	c.OnReadable(func() {
		t.ready.set(peer)
		t.wake()
	})
	// Window updates must reach a writer parked in interleave (its yield
	// waits on the transport-wide creditCond, since the wakeup it needs may
	// arrive on any connection, not just the one it is writing).
	c.OnWritable(func() { t.wake() })
}

// dgramLink abstracts a reliable, in-order datagram channel: the RUDP
// layer over UDP, or the U-Net user-level endpoint (whose dedicated
// flow-controlled switch links are lossless and ordered by construction).
type dgramLink interface {
	Send(p *sim.Proc, dst int, data []byte) error
	TryRecv(p *sim.Proc, buf []byte) (n, src int, ok bool, err error)
	Readable() bool
	MaxDatagram() int
	OnArrival(fn func())
}

// unetLink adapts the U-Net endpoint to dgramLink.
type unetLink struct{ u *atm.UNet }

func (l unetLink) Send(p *sim.Proc, dst int, data []byte) error {
	l.u.SendTo(p, dst, data)
	return nil
}

func (l unetLink) TryRecv(p *sim.Proc, buf []byte) (int, int, bool, error) {
	if !l.u.Readable() {
		return 0, 0, false, nil
	}
	n, src := l.u.RecvFrom(p, buf)
	return n, src, true, nil
}

func (l unetLink) Readable() bool      { return l.u.Readable() }
func (l unetLink) MaxDatagram() int    { return atm.UNetMaxPDU }
func (l unetLink) OnArrival(fn func()) { l.u.OnReadable(fn) }

func (t *transport) attachDgram(d dgramLink) {
	t.dgram = d
	d.OnArrival(func() { t.wake() })
}

// wake rouses both the engine (blocked receivers) and any sender parked on
// flow control — a credit return may be riding the arrival.
func (t *transport) wake() {
	t.creditCond.Broadcast()
	t.eng.Wake()
}

var _ core.Transport = (*transport)(nil)

// MaxEager implements core.Transport.
func (t *transport) MaxEager() int { return t.max }

// writeFrame ships one protocol message (header + optional payload),
// charging p the full kernel send path.
func (t *transport) writeFrame(p *sim.Proc, dst int, kind core.PacketKind, env core.Envelope, aux uint32, payload []byte) {
	if t.dead[dst] {
		return // fenced: the peer is dead, the frame would go nowhere
	}
	frame := t.pool.Get(headerBytes + len(payload))
	flow.EncodeHeaderInto(frame, kind, t.owed.Take(dst), env, aux)
	copy(frame[headerBytes:], payload)
	if t.kind == TCP {
		t.conns[dst].Write(p, frame)
	} else if err := t.dgram.Send(p, dst, frame); err != nil {
		// Datagram modes: one datagram per message; oversized payloads are
		// chunked by the caller before reaching here.
		t.fail(err)
	}
	t.pool.Put(frame)
}

// fail declares the transport dead: the error (typed ErrLinkDown unless the
// link already produced an MPI error) completes every pending request and
// fails all subsequent operations, so Wait callers see the failure instead
// of hanging on a link that will never deliver.
func (t *transport) fail(err error) {
	if _, ok := err.(*core.Error); !ok {
		err = core.Errorf(core.ErrLinkDown, "cluster/%s rank %d: %v", t.kind, t.rank, err)
	}
	t.eng.Fatal(err)
}

// transmit ships one protocol message whose flow control has cleared:
// rendezvous envelope or eager header+payload.
func (t *transport) transmit(p *sim.Proc, req *core.Request) {
	if req.Err() != nil || t.dead[req.Env.Dest] {
		// The destination died while the message queued on flow control (the
		// engine already failed the request with ErrPeerDown). Done() is the
		// wrong guard here: a buffered send completes at Isend time yet must
		// still ship.
		return
	}
	if req.Env.Count > t.max {
		if ad, ok := t.takeRTR(req); ok {
			// The receiver advertised a matching pre-posted buffer: write
			// the payload directly, skipping the RTS/CTS round trip.
			t.eng.Acct().Incr("rndv-rtr", 1)
			t.sendDirect(p, req, ad.aux)
			return
		}
		// Rendezvous: envelope only; the payload moves on CTS.
		t.rndvSend[req.Env.SendID] = req
		t.eng.Acct().Incr("rndv", 1)
		t.writeFrame(p, req.Env.Dest, core.PktRTS, req.Env, 0, nil)
		return
	}
	t.eng.Acct().Incr("eager", 1)
	t.writeFrame(p, req.Env.Dest, core.PktEager, req.Env, 0, req.Buf)
	t.eng.SendDone(req)
}

// Send implements core.Transport. It never blocks: messages short of
// credits queue in the flow layer in issue order (behind any queued
// predecessor, including rendezvous envelopes, preserving MPI's
// non-overtaking rule) and are shipped from the owning process's next Poll
// once credits return.
func (t *transport) Send(p *sim.Proc, req *core.Request) {
	if t.fc.Offer(req) {
		t.transmit(p, req)
	}
}

// Accept implements core.Transport: register the landing buffer and send
// the CTS naming it.
func (t *transport) Accept(p *sim.Proc, msg *core.InMsg, req *core.Request) {
	t.nextHandle++
	h := t.nextHandle
	want := msg.Env.Count
	if want > len(req.Buf) {
		want = len(req.Buf)
	}
	t.rndvRecv[h] = &rndvRecvSt{req: req, env: msg.Env, want: want, total: msg.Env.Count}
	t.writeFrame(p, msg.Env.Source, core.PktCTS, msg.Env, h, nil)
}

// SendPayload implements core.Transport: a CTS surfaced at the sender, so
// this process pushes the payload itself — the cluster has no co-processor
// to do it in the background, which is exactly the progress limitation the
// paper discusses for socket transports.
func (t *transport) SendPayload(p *sim.Proc, req *core.Request, pkt *core.Packet) {
	handle := uint32(pkt.Handle)
	delete(t.rndvSend, req.Env.SendID)
	dst := req.Env.Dest
	data := req.Buf
	if t.kind == TCP {
		// The frame may exceed the receiver's TCP window, and the peer may
		// be pushing an equally large frame at us at the same moment (the
		// symmetric exchanges every large collective performs). A plain
		// blocking write would park both sides on window space with neither
		// draining its inbound stream, so interleave: whenever the window
		// closes, parse whatever has arrived before parking.
		frame := t.pool.Get(headerBytes + len(data))
		flow.EncodeHeaderInto(frame, core.PktData, t.owed.Take(dst), req.Env, handle)
		copy(frame[headerBytes:], data)
		t.conns[dst].WriteInterleaved(p, frame, func() {
			if !t.parseAvailable(p) {
				t.creditCond.Wait(p)
			}
		})
		t.pool.Put(frame)
		t.eng.SendDone(req)
		return
	}
	// Datagram modes: chunk to datagram size; the chunk offset travels in
	// the tag field (Data packets carry no user tag).
	maxChunk := t.dgram.MaxDatagram() - headerBytes
	for off := 0; off < len(data) || off == 0; off += maxChunk {
		end := off + maxChunk
		if end > len(data) {
			end = len(data)
		}
		env := req.Env
		env.Tag = off
		env.Count = end - off
		t.writeFrame(p, dst, core.PktData, env, handle, data[off:end])
		if end == len(data) {
			break
		}
	}
	t.eng.SendDone(req)
}

// --------------------------------------------------- RDMA-write rendezvous --
//
// The socket transports have no remote-memory primitive, but they can
// still eliminate the rendezvous matching round trip the way MPICH2 does
// on InfiniBand: when a rendezvous-sized receive is posted before its
// message with a specific source and tag, the receiver advertises the
// buffer (PktRTR, credit-exempt) and the sender's first matching
// standard/buffered rendezvous send writes its payload directly — one
// traversal instead of three.
//
// The advertisement is purely an optimization, never a promise: the
// receive stays posted in the matcher, so an earlier in-flight message
// can still match it. The direct payload therefore *claims* the receive
// when it starts arriving; if the claim fails the bytes detour through a
// bounce buffer and re-enter the matcher as an eager arrival in their
// exact stream position, which preserves MPI's per-pair matching order
// (all frames of the direct payload precede any later frame from that
// sender on the same ordered channel).

// AdvertiseRecv implements core.RecvAdvertiser: register a landing handle
// for the pre-posted receive and tell the prospective sender about it.
func (t *transport) AdvertiseRecv(p *sim.Proc, req *core.Request) {
	if t.noRTR {
		return
	}
	t.nextHandle++
	h := t.nextHandle
	// st.env is the status envelope should the direct payload land: the
	// posted signature with count/mode filled in from the first chunk.
	t.rndvRecv[h] = &rndvRecvSt{
		req:  req,
		env:  core.Envelope{Source: req.Env.Source, Tag: req.Env.Tag, Context: req.Env.Context},
		want: len(req.Buf),
		rtr:  true,
	}
	// The frame's envelope names this rank as source (it is the frame's
	// sender) and carries the posted signature plus buffer capacity.
	ad := core.Envelope{Source: t.rank, Tag: req.Env.Tag, Context: req.Env.Context, Count: len(req.Buf)}
	t.eng.Acct().Incr("rtr-post", 1)
	t.writeFrame(p, req.Env.Source, core.PktRTR, ad, h, nil)
}

// takeRTR consumes the first advertisement matching a rendezvous send.
// Synchronous sends keep the RTS/CTS path (their ack rides the CTS), and
// ready sends assert the receive exists anyway; an advertisement whose
// capacity is short of the message falls back too, keeping truncation on
// the one code path that handles it.
func (t *transport) takeRTR(req *core.Request) (rtrAd, bool) {
	if t.noRTR || (req.Env.Mode != core.ModeStandard && req.Env.Mode != core.ModeBuffered) {
		return rtrAd{}, false
	}
	q := t.rtrQ[req.Env.Dest]
	for i, ad := range q {
		if ad.env.Context == req.Env.Context && ad.env.Tag == req.Env.Tag && ad.env.Count >= req.Env.Count {
			t.rtrQ[req.Env.Dest] = append(q[:i:i], q[i+1:]...)
			return ad, true
		}
	}
	return rtrAd{}, false
}

// sendDirect writes a rendezvous payload straight to an advertised
// buffer: a Data frame with no preceding RTS/CTS exchange. Direct data
// is credit-exempt, like the CTS-clocked payload it replaces.
func (t *transport) sendDirect(p *sim.Proc, req *core.Request, aux uint32) {
	dst := req.Env.Dest
	data := req.Buf
	if t.kind == TCP {
		// Same interleaving discipline as SendPayload: drain inbound frames
		// whenever the peer's window closes, so symmetric large exchanges
		// cannot deadlock.
		frame := t.pool.Get(headerBytes + len(data))
		flow.EncodeHeaderInto(frame, core.PktData, t.owed.Take(dst), req.Env, aux)
		copy(frame[headerBytes:], data)
		t.conns[dst].WriteInterleaved(p, frame, func() {
			if !t.parseAvailable(p) {
				t.creditCond.Wait(p)
			}
		})
		t.pool.Put(frame)
		t.eng.SendDone(req)
		return
	}
	// Datagram modes: chunked like the CTS path, the offset in the tag
	// field — plus the full message size in the id field, since no RTS
	// ever announced it to the receiver.
	maxChunk := t.dgram.MaxDatagram() - headerBytes
	for off := 0; off < len(data) || off == 0; off += maxChunk {
		end := off + maxChunk
		if end > len(data) {
			end = len(data)
		}
		env := req.Env
		env.Tag = off
		env.Count = end - off
		env.SendID = int64(len(data))
		t.writeFrame(p, dst, core.PktData, env, aux, data[off:end])
		if end == len(data) {
			break
		}
	}
	t.eng.SendDone(req)
}

// startRTR begins the landing of a direct payload: fix the total from the
// first frame and claim the advertised receive from the matcher. A failed
// claim switches the landing to a bounce buffer for re-injection.
func (t *transport) startRTR(st *rndvRecvSt, total int, mode core.Mode) {
	st.started = true
	st.total = total
	if st.want > total {
		st.want = total
	}
	st.env.Count = total
	st.env.Mode = mode
	if t.eng.ClaimDirect(st.req) {
		st.claimed = true
		return
	}
	st.bounce = make([]byte, total)
	t.eng.Acct().Incr("rtr-stale", 1)
}

// finishRTRFallback surfaces a bounced direct payload as an eager
// arrival. The engine's eager path will Release reservation that was
// never consumed (direct data is credit-exempt), slightly inflating the
// pair's credit; the drift is bounded by the stale-claim count and only
// ever loosens flow control, so we accept it for this rare race.
func (t *transport) finishRTRFallback(st *rndvRecvSt) {
	t.inbox.Push(core.Packet{Kind: core.PktEager, Env: st.env, Data: st.bounce})
}

// Control implements core.Transport (synchronous-mode acks).
func (t *transport) Control(p *sim.Proc, dst int, kind core.PacketKind, env core.Envelope) {
	t.writeFrame(p, dst, kind, env, 0, nil)
}

// Release implements core.Transport: reservation freed at the receiver.
// Credit returns piggyback on outgoing headers; when a quarter of the
// reservation is owed (one-sided traffic), an explicit credit message
// flushes it — keeping the pair deadlock-free.
func (t *transport) Release(p *sim.Proc, src int, n int) {
	if t.owed.Add(src, n+headerBytes) {
		t.writeFrame(p, src, core.PktCredit, core.Envelope{Source: t.rank}, 0, nil)
	}
}

// PeerDown implements core.PeerFencer: fence every piece of per-peer
// transport state toward a dead rank so nothing ever retries into its
// black hole — queued sends are dropped (the engine already failed their
// requests), rendezvous bookkeeping toward it is forgotten, flow-control
// capacity is restored (the corpse can never grant credit back), and the
// wire itself is fenced (TCP discards, RUDP abandons retransmission).
func (t *transport) PeerDown(rank int) {
	if t.dead == nil {
		t.dead = make(map[int]bool)
	}
	t.dead[rank] = true
	for id, req := range t.rndvSend {
		if req.Env.Dest == rank {
			delete(t.rndvSend, id)
		}
	}
	delete(t.rtrQ, rank)
	t.fc.DropDst(rank, t.creditCap, nil)
	keep := t.pendingShip[:0]
	for _, req := range t.pendingShip {
		if req.Env.Dest != rank {
			keep = append(keep, req)
		}
	}
	t.pendingShip = keep
	if t.kind == TCP {
		if c := t.conns[rank]; c != nil {
			c.Drop()
		}
	} else if dp, ok := t.dgram.(interface{ DropPeer(int) }); ok {
		dp.DropPeer(rank)
	}
	t.wake()
}

// addCredit books returned reservation at the sender side: the flow layer
// re-admits queued sends in issue order onto the pendingShip list; the
// owning process transmits them on its next Poll (kernel writes need a
// process context to charge).
func (t *transport) addCredit(src, n int) {
	if n == 0 {
		return
	}
	t.fc.Grant(src, n, func(req *core.Request) {
		t.pendingShip = append(t.pendingShip, req)
	})
	t.creditCond.Broadcast()
	t.eng.Wake()
}

// Poll implements core.Transport. Shipping runs after parsing: the parse
// step is what returns credits, and a send freed by this very poll must go
// out now (the engine stops polling once Poll returns nil).
func (t *transport) Poll(p *sim.Proc) *core.Packet {
	if t.inbox.Len() == 0 {
		t.parseAvailable(p)
	}
	t.shipPending(p)
	return t.inbox.Pop()
}

// shipPending transmits queued sends whose flow control cleared.
func (t *transport) shipPending(p *sim.Proc) {
	for len(t.pendingShip) > 0 {
		req := t.pendingShip[0]
		t.pendingShip = t.pendingShip[1:]
		t.transmit(p, req)
	}
}

// Pending implements core.Transport.
func (t *transport) Pending() bool {
	if t.inbox.Len() > 0 || len(t.pendingShip) > 0 {
		return true
	}
	if t.kind == TCP {
		return t.ready.sweep(0, t.size, t.readable, func(int) bool { return true })
	}
	return t.dgram.Readable()
}

// readable reports whether peer j's connection holds unread bytes.
func (t *transport) readable(j int) bool { return t.conns[j].Readable() }

// parseAvailable consumes every complete message currently readable,
// reporting whether anything was processed.
func (t *transport) parseAvailable(p *sim.Proc) bool {
	any := false
	if t.kind != TCP {
		for t.parseDgram(p) {
			any = true
		}
		return any
	}
	// Passes visit the readable connections round-robin from rr, repeating
	// until one finds nothing. Each parse advances virtual time, so which
	// connection is read when is part of the model: the walk must see
	// exactly what a scan of every connection would.
	for progress := true; progress; t.rr = (t.rr + 1) % t.size {
		progress = false
		t.ready.sweep(t.rr, t.size, t.readable, func(j int) bool {
			t.parseTCP(p, j, t.conns[j])
			progress, any = true, true
			return false
		})
	}
	return any
}

// readySet is a bitset over peer ranks: a bit is set whenever bytes arrive
// on that peer's connection and cleared lazily, when a sweep finds the
// connection drained. Arrivals are the only way a connection turns
// readable, so every readable connection's bit is set, and a poll costs
// O(readable connections) instead of O(P).
type readySet []uint64

func (r readySet) set(i int)   { r[i>>6] |= 1 << (i & 63) }
func (r readySet) clear(i int) { r[i>>6] &^= 1 << (i & 63) }

// next returns the lowest set bit in [i, end), or -1.
func (r readySet) next(i, end int) int {
	for i < end {
		if w := r[i>>6] >> (i & 63); w != 0 {
			if j := i + bits.TrailingZeros64(w); j < end {
				return j
			}
			return -1
		}
		i = (i | 63) + 1
	}
	return -1
}

// sweep walks the set bits of an n-bit set in rotated order — start,
// start+1, …, n-1, 0, …, start-1 — looking each one up when the cursor
// reaches it, so a bit set mid-walk ahead of the cursor is visited and one
// behind it waits for the next sweep. A visited bit whose ready check
// fails is cleared and skipped; otherwise visit runs, and sweep stops early
// if visit returns true. sweep reports whether it stopped early.
func (r readySet) sweep(start, n int, ready func(int) bool, visit func(int) bool) bool {
	for _, seg := range [2][2]int{{start, n}, {0, start}} {
		for j := r.next(seg[0], seg[1]); j >= 0; j = r.next(j+1, seg[1]) {
			if !ready(j) {
				r.clear(j)
			} else if visit(j) {
				return true
			}
		}
	}
	return false
}

// parseTCP consumes one message from conn, performing the paper's two
// header reads (message type, then credit+envelope) and any payload read.
func (t *transport) parseTCP(p *sim.Proc, src int, conn *atm.TCP) {
	if d := t.inData[src]; d != nil {
		// Resume the partially-read Data frame before touching headers:
		// everything readable on this stream is its remaining payload.
		t.readData(p, src, conn, d)
		return
	}
	acct := t.eng.Acct()
	var hdr [headerBytes]byte

	t0 := p.Now()
	conn.ReadFull(p, hdr[:1])
	acct.Book(acctReadType, sim.Duration(p.Now()-t0))
	acct.Incr(acctReadType, 1)

	t1 := p.Now()
	conn.ReadFull(p, hdr[1:])
	acct.Book(acctReadEnv, sim.Duration(p.Now()-t1))
	acct.Incr(acctReadEnv, 1)

	kind, credit, env, aux := flow.DecodeHeader(hdr[:])
	t.addCredit(src, credit)

	switch kind {
	case core.PktEager:
		payload := t.pool.Get(env.Count)
		t2 := p.Now()
		conn.ReadFull(p, payload)
		acct.Book(acctReadData, sim.Duration(p.Now()-t2))
		t.inbox.Push(core.Packet{Kind: kind, Env: env, Data: payload, Pool: t.pool})
	case core.PktRTS:
		t.inbox.Push(core.Packet{Kind: kind, Env: env})
	case core.PktCTS:
		t.inbox.Push(core.Packet{Kind: kind, Env: env, ReqID: env.SendID, Handle: int64(aux)})
	case core.PktData:
		st := t.rndvRecv[aux]
		if st == nil {
			t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "rendezvous data for unknown handle %d", aux))
			return
		}
		if st.rtr && !st.started {
			// Direct payload for an advertised receive: the frame carries
			// the full send envelope, so the total is its count.
			t.startRTR(st, env.Count, env.Mode)
		}
		d := &tcpData{st: st, aux: aux, env: env}
		t.inData[src] = d
		t.readData(p, src, conn, d)
	case core.PktRTR:
		t.rtrQ[env.Source] = append(t.rtrQ[env.Source], rtrAd{env: env, aux: aux})
	case core.PktSyncAck:
		t.inbox.Push(core.Packet{Kind: kind, Env: env, ReqID: env.SendID})
	case core.PktRevoke:
		t.inbox.Push(core.Packet{Kind: kind, Env: env})
	case core.PktCredit:
		// Credit already booked from the header; nothing to surface.
	default:
		t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "unknown packet kind %d from %d", kind, src))
	}
}

// readData lands however much of a rendezvous payload the kernel buffer
// holds, resuming on later polls until the frame completes. Reading only
// buffered bytes — never parking for more — is what keeps two peers
// exchanging window-exceeding payloads deadlock-free: each side alternates
// between pushing its own frame and draining the other's.
func (t *transport) readData(p *sim.Proc, src int, conn *atm.TCP, d *tcpData) {
	acct := t.eng.Acct()
	st := d.st
	// A stale-claimed direct payload lands in the bounce buffer (sized to
	// the full message, so it never truncates); everything else lands in
	// the posted buffer up to its capacity.
	landBuf, landMax := st.req.Buf, st.want
	if st.bounce != nil {
		landBuf, landMax = st.bounce, st.total
	}
	for st.got < st.total {
		n := conn.Buffered()
		if n == 0 {
			return // resume when the next segment arrives
		}
		if rem := st.total - st.got; n > rem {
			n = rem
		}
		t2 := p.Now()
		if st.got < landMax {
			end := st.got + n
			if end > landMax {
				end = landMax
			}
			conn.ReadFull(p, landBuf[st.got:end])
			if rest := n - (end - st.got); rest > 0 {
				// The receive buffer was short: drain and discard the excess.
				junk := t.pool.Get(rest)
				conn.ReadFull(p, junk)
				t.pool.Put(junk)
			}
		} else {
			junk := t.pool.Get(n)
			conn.ReadFull(p, junk)
			t.pool.Put(junk)
		}
		acct.Book(acctReadData, sim.Duration(p.Now()-t2))
		st.got += n
	}
	t.inData[src] = nil
	delete(t.rndvRecv, d.aux)
	if st.bounce != nil {
		t.finishRTRFallback(st)
		return
	}
	t.inbox.Push(core.Packet{Kind: core.PktData, Env: d.env, ReqID: st.req.ID})
}

// parseDgram consumes one reliable datagram, reporting whether one was
// available.
func (t *transport) parseDgram(p *sim.Proc) bool {
	buf := t.pool.Get(t.dgram.MaxDatagram())
	defer t.pool.Put(buf)
	n, _, ok, err := t.dgram.TryRecv(p, buf)
	if err != nil {
		t.fail(err)
	}
	if !ok {
		return false
	}
	if n < headerBytes {
		t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "short datagram (%d bytes)", n))
		return true
	}
	kind, credit, env, aux := flow.DecodeHeader(buf[:headerBytes])
	t.addCredit(env.Source, credit)
	payload := buf[headerBytes:n]

	switch kind {
	case core.PktEager:
		data := t.pool.Get(len(payload))
		copy(data, payload)
		t.inbox.Push(core.Packet{Kind: kind, Env: env, Data: data, Pool: t.pool})
	case core.PktRTS:
		t.inbox.Push(core.Packet{Kind: kind, Env: env})
	case core.PktCTS:
		t.inbox.Push(core.Packet{Kind: kind, Env: env, ReqID: env.SendID, Handle: int64(aux)})
	case core.PktData:
		st := t.rndvRecv[aux]
		if st == nil {
			t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "rendezvous data for unknown handle %d", aux))
			return true
		}
		if st.rtr && !st.started {
			// Direct payload for an advertised receive: no RTS announced
			// the size, so the total rides the chunk's id field.
			t.startRTR(st, int(env.SendID), env.Mode)
		}
		off := env.Tag // chunk offset rides in the tag field
		if st.bounce != nil {
			copy(st.bounce[off:off+len(payload)], payload)
		} else if off < st.want {
			end := off + len(payload)
			if end > st.want {
				end = st.want
			}
			copy(st.req.Buf[off:end], payload[:end-off])
		}
		st.got += len(payload)
		if st.got >= st.total {
			delete(t.rndvRecv, aux)
			if st.bounce != nil {
				t.finishRTRFallback(st)
			} else {
				t.inbox.Push(core.Packet{Kind: kind, Env: st.env, ReqID: st.req.ID})
			}
		}
	case core.PktRTR:
		t.rtrQ[env.Source] = append(t.rtrQ[env.Source], rtrAd{env: env, aux: aux})
	case core.PktSyncAck:
		t.inbox.Push(core.Packet{Kind: kind, Env: env, ReqID: env.SendID})
	case core.PktRevoke:
		t.inbox.Push(core.Packet{Kind: kind, Env: env})
	case core.PktCredit:
	default:
		t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "unknown packet kind %d", kind))
	}
	return true
}
