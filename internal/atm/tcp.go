package atm

import (
	"slices"
	"time"

	"repro/internal/sim"
)

// DefaultTCPBuffer is the kernel socket buffer size: the receive window.
const DefaultTCPBuffer = 64 * 1024

// TCP is one end of an established TCP connection (connections are static
// in the paper's setup, so connection establishment is out of scope). The
// model implements what the paper's MPI rides on: a reliable ordered byte
// stream with segmentation at the MSS, kernel protocol processing per
// segment, user/kernel copies, and receiver-buffer flow control. Loss
// recovery is not modeled — both testbed media are effectively lossless
// and the paper treats TCP as a reliable stream (UDP reliability is
// modeled separately in RUDP).
type TCP struct {
	cl   *Cluster
	host int
	med  Medium
	peer *TCP

	rq        []byte // kernel receive buffer; rq[rqHead:] is delivered, unread
	rqHead    int
	readable  *sim.Cond
	watchers  []func() // arrival callbacks (event context)
	wwatchers []func() // window-opened callbacks (event context)

	sndCredit int // peer receive-buffer space we may consume
	sndWait   *sim.Cond

	// Nagle enables RFC 896 coalescing: while data is unacknowledged,
	// sub-MSS writes are held and merged. Off by default — the paper's
	// latency work presupposes TCP_NODELAY, and the MPI device writes each
	// protocol message as a single frame precisely to keep small messages
	// off this path.
	Nagle bool
	// DelayedAck enables 4.2BSD-style ack delay: acknowledgements (window
	// updates) are withheld until two segments' worth is owed or the delay
	// timer fires. Acks piggyback on reverse data immediately. The classic
	// Nagle x DelayedAck interaction stalls one-way small-message streams
	// by AckDelay per exchange.
	DelayedAck bool
	// AckDelay is the delayed-ack timer (0 = the classic 200 ms).
	AckDelay sim.Duration

	dropped  bool   // fenced by Drop: the peer is dead, writes are discarded
	unacked  int    // bytes sent, not yet acknowledged
	nagleQ   []byte // coalesced sub-MSS data awaiting an ack
	owedAck  int    // window bytes not yet returned to the peer
	ackTimer bool   // delayed-ack timer armed

	// Reassembly. Data segments carry a per-connection sequence number;
	// delay and jitter faults can reorder them on the wire, so a segment
	// that overtakes its predecessor is held until the gap fills.
	sndNext uint64    // sequence number of our next data segment
	rcvNext uint64    // sequence number the byte stream needs next
	held    []*tcpSeg // arrived out of order, awaiting rcvNext

	// Stats for tests and instrumentation.
	SegmentsOut int
	BytesIn     int
}

// TCPPair establishes a connection between hosts h0 and h1 over medium k,
// returning the two endpoints.
func (cl *Cluster) TCPPair(h0, h1 int, k MediumKind) (*TCP, *TCP) {
	m := cl.Medium(k)
	s0, s1 := cl.SchedOf(h0), cl.SchedOf(h1)
	a := &TCP{cl: cl, host: h0, med: m, readable: sim.NewCond(s0), sndWait: sim.NewCond(s0), sndCredit: DefaultTCPBuffer}
	b := &TCP{cl: cl, host: h1, med: m, readable: sim.NewCond(s1), sndWait: sim.NewCond(s1), sndCredit: DefaultTCPBuffer}
	a.peer, b.peer = b, a
	return a, b
}

// Host reports the endpoint's host id.
func (c *TCP) Host() int { return c.host }

// MSS reports the maximum segment payload for the connection's medium.
func (c *TCP) MSS() int { return c.med.MTU() - TCPIPHeader }

// Write sends len(data) bytes down the stream, blocking (in virtual time)
// on the receiver's window. It charges the syscall, the user-to-kernel
// copy, checksumming, and per-segment protocol processing to p.
func (c *TCP) Write(p *sim.Proc, data []byte) {
	k := c.cl.Costs
	p.Advance(k.SyscallWrite)
	p.Advance(sim.Duration(len(data)) * (k.CopyPerByte + k.ChecksumPerByte))
	mss := c.MSS()
	for off := 0; off < len(data); off += mss {
		end := off + mss
		if end > len(data) {
			end = len(data)
		}
		c.writeSegment(p, data[off:end])
	}
	if len(data) == 0 {
		c.writeSegment(p, nil)
	}
}

// Drop fences the connection against a dead peer: segments written from
// now on are discarded instead of transmitted (the corpse will never read
// them), send credit is pinned open (it will never return window updates
// either), and writers parked on window space are released. Without the
// fence a single dead peer would park every survivor that still owes it a
// frame on a window that can never reopen.
func (c *TCP) Drop() {
	c.dropped = true
	c.sndCredit = DefaultTCPBuffer
	c.sndWait.Broadcast()
	for _, fn := range c.wwatchers {
		fn()
	}
}

func (c *TCP) writeSegment(p *sim.Proc, seg []byte) {
	if c.dropped {
		return // fenced: the bytes would go to a dead peer
	}
	if c.Nagle && c.unacked > 0 && len(c.nagleQ)+len(seg) < c.MSS() {
		// Hold sub-MSS data while anything is in flight (RFC 896).
		c.nagleQ = append(c.nagleQ, seg...)
		return
	}
	if len(c.nagleQ) > 0 {
		seg = append(append([]byte{}, c.nagleQ...), seg...)
		c.nagleQ = nil
	}
	// A data transmission is an opportunity to piggyback any ack we owe.
	c.flushOwedAck()
	k := c.cl.Costs
	for c.sndCredit < len(seg) {
		c.sndWait.Wait(p)
	}
	if c.dropped {
		return // the peer died while we were parked on its window
	}
	c.sndCredit -= len(seg)
	c.unacked += len(seg)
	p.Advance(k.TCPPerSegment)
	c.sendData(seg)
}

// tcpSeg is one TCP frame in flight: a data segment or a window update. It
// is a pooled record and its own delivery Handler, drawn on the sender's
// lane and retired on the receiver's. TCP frames are never droppable, so
// the fault layer fires each one exactly once.
type tcpSeg struct {
	c       *TCP   // sending endpoint
	seq     uint64 // data: per-connection sequence number
	payload []byte // data: the segment's bytes; the buffer is reused
	window  int    // window update: bytes of window returned
	isAck   bool   // a window update, not data
	input   bool   // data: the medium delivered it; next Fire is post-input
}

// sendData transmits one data segment whose window space is already
// booked. The segment's bytes are copied into the record's own buffer.
func (c *TCP) sendData(seg []byte) {
	sg := c.cl.segFree.Get(c.cl.SchedOf(c.host))
	sg.c, sg.seq = c, c.sndNext
	sg.payload = append(sg.payload[:0], seg...)
	c.sndNext++
	c.SegmentsOut++
	c.med.Deliver(c.host, c.peer.host, len(seg)+TCPIPHeader, DeliverOpts{}, sg)
}

// Fire implements sim.Handler. The medium runs it on the receiver's lane.
func (sg *tcpSeg) Fire() {
	rc := sg.c.peer // the receiving endpoint
	switch {
	case sg.isAck:
		rc.windowUpdate(sg.window)
		rc.retire(sg)
	case !sg.input:
		// Receiver-side kernel input processing, then the data becomes
		// readable.
		sg.input = true
		s := rc.cl.SchedOf(rc.host)
		s.AtH(s.Now()+sim.Time(rc.cl.Costs.TCPPerSegment), sg)
	default:
		rc.receive(sg)
	}
}

// retire returns a record that arrived at c to c's lane freelist.
func (c *TCP) retire(sg *tcpSeg) {
	*sg = tcpSeg{payload: sg.payload[:0]}
	c.cl.segFree.Put(c.cl.SchedOf(c.host), sg)
}

// receive files an arrived data segment into the byte stream in sequence
// order. A segment that overtook a predecessor is held; once the next
// expected one arrives, it and every held successor become readable.
func (c *TCP) receive(sg *tcpSeg) {
	if sg.seq != c.rcvNext {
		c.held = append(c.held, sg)
		return
	}
	for sg != nil {
		c.appendRQ(sg.payload)
		c.BytesIn += len(sg.payload)
		c.rcvNext++
		c.retire(sg)
		sg = nil
		for i, h := range c.held {
			if h.seq == c.rcvNext {
				sg = h
				c.held = slices.Delete(c.held, i, i+1)
				break
			}
		}
	}
	c.readable.Broadcast()
	for _, fn := range c.watchers {
		fn()
	}
}

// appendRQ adds delivered bytes to the receive buffer. A drained buffer
// restarts at the front of its array; a partly read one slides its unread
// tail down before it would grow, so the array is reused indefinitely.
func (c *TCP) appendRQ(b []byte) {
	if c.rqHead > 0 && len(c.rq)+len(b) > cap(c.rq) {
		n := copy(c.rq, c.rq[c.rqHead:])
		c.rq = c.rq[:n]
		c.rqHead = 0
	}
	c.rq = append(c.rq, b...)
}

// WriteInterleaved is Write for callers that must keep draining their own
// inbound side while a large frame pushes against a closed window: whenever
// the next segment would block on window space, yield runs instead of
// parking here. yield should consume inbound data (freeing the peer to
// drain this frame) or park on a condition woken by both arrivals and
// window updates (see OnWritable). Two peers pushing window-exceeding
// frames at each other would both park forever in plain Write — the classic
// socket-MPI progress deadlock. Costs charged to p are identical to
// Write's.
func (c *TCP) WriteInterleaved(p *sim.Proc, data []byte, yield func()) {
	k := c.cl.Costs
	p.Advance(k.SyscallWrite)
	p.Advance(sim.Duration(len(data)) * (k.CopyPerByte + k.ChecksumPerByte))
	mss := c.MSS()
	for off := 0; off < len(data); off += mss {
		end := off + mss
		if end > len(data) {
			end = len(data)
		}
		for c.sndCredit < end-off {
			yield()
		}
		c.writeSegment(p, data[off:end])
	}
	if len(data) == 0 {
		c.writeSegment(p, nil)
	}
}

// Read blocks until at least one byte is available, then transfers up to
// len(buf) bytes to the caller, charging the read syscall, the
// medium-dependent stack cost, and the kernel-to-user copy. It returns the
// byte count. Reading frees window space, which flows back to the sender
// as a window-update frame.
func (c *TCP) Read(p *sim.Proc, buf []byte) int {
	k := c.cl.Costs
	p.Advance(k.SyscallRead + c.cl.readExtra(c.med.Kind()))
	if !c.Readable() {
		for !c.Readable() {
			c.readable.Wait(p)
		}
		p.Advance(k.KernelWakeup)
	}
	n := copy(buf, c.rq[c.rqHead:])
	c.rqHead += n
	if c.rqHead == len(c.rq) {
		c.rq, c.rqHead = c.rq[:0], 0
	}
	p.Advance(sim.Duration(n) * k.CopyPerByte)
	c.sendWindowUpdate(n)
	return n
}

// ReadFull fills buf completely, looping over Read.
func (c *TCP) ReadFull(p *sim.Proc, buf []byte) {
	for off := 0; off < len(buf); {
		off += c.Read(p, buf[off:])
	}
}

// sendWindowUpdate returns n bytes of window to the peer via a bare-header
// frame (the ack traffic of the model). With DelayedAck the update is
// withheld until two MSS of window is owed or the delay timer fires.
func (c *TCP) sendWindowUpdate(n int) {
	if n == 0 {
		return
	}
	if !c.DelayedAck {
		c.transmitAck(n)
		return
	}
	c.owedAck += n
	if c.owedAck >= 2*c.MSS() {
		c.flushOwedAck()
		return
	}
	if !c.ackTimer {
		c.ackTimer = true
		delay := c.AckDelay
		if delay == 0 {
			delay = 200 * time.Millisecond
		}
		c.cl.SchedOf(c.host).After(delay, func() {
			c.ackTimer = false
			c.flushOwedAck()
		})
	}
}

// flushOwedAck transmits any withheld window update.
func (c *TCP) flushOwedAck() {
	if c.owedAck == 0 {
		return
	}
	n := c.owedAck
	c.owedAck = 0
	c.transmitAck(n)
}

// transmitAck carries an n-byte window update (and acknowledgement) to the
// peer, unblocking its window waiters and releasing Nagle-held data.
func (c *TCP) transmitAck(n int) {
	sg := c.cl.segFree.Get(c.cl.SchedOf(c.host))
	sg.c, sg.isAck, sg.window = c, true, n
	c.med.Deliver(c.host, c.peer.host, TCPIPHeader, DeliverOpts{}, sg)
}

// windowUpdate applies an arrived n-byte window update at c.
func (c *TCP) windowUpdate(n int) {
	c.sndCredit += n
	c.unacked -= n
	if c.unacked < 0 {
		c.unacked = 0
	}
	if c.Nagle && c.unacked == 0 && len(c.nagleQ) > 0 {
		// The ack releases coalesced data; transmission happens in
		// kernel context (timer/interrupt), like RUDP retransmits.
		c.kernelFlushNagle()
	}
	c.sndWait.Broadcast()
	for _, fn := range c.wwatchers {
		fn()
	}
}

// kernelFlushNagle transmits the coalesced queue from kernel context.
func (c *TCP) kernelFlushNagle() {
	seg := c.nagleQ
	if len(seg) > c.sndCredit {
		// Window closed: keep it queued; the next update retries.
		return
	}
	c.nagleQ = nil
	c.sndCredit -= len(seg)
	c.unacked += len(seg)
	c.sendData(seg)
}

// Buffered reports how many received bytes are waiting in the kernel.
func (c *TCP) Buffered() int { return len(c.rq) - c.rqHead }

// Readable reports whether a Read would return without blocking.
func (c *TCP) Readable() bool { return len(c.rq) > c.rqHead }

// OnReadable registers fn to run whenever new bytes become readable; used
// by pollers that watch many connections. fn runs in event context.
func (c *TCP) OnReadable(fn func()) {
	c.watchers = append(c.watchers, fn)
}

// OnWritable registers fn to run whenever a window update restores send
// space; a WriteInterleaved yield that parks on a shared condition needs
// this to relay the wakeup. fn runs in event context.
func (c *TCP) OnWritable(fn func()) {
	c.wwatchers = append(c.wwatchers, fn)
}
