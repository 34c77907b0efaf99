package atm

import (
	"fmt"

	"repro/internal/sim"
)

// Datagram is a received UDP (or AAL4) datagram.
type Datagram struct {
	Src  int
	Data []byte
}

// UDP is a bound datagram socket on one host over one medium. One socket
// per (host, medium) carries all of the model's UDP traffic — addressing
// is by host id, matching the paper's static process-per-host placement.
type UDP struct {
	cl   *Cluster
	host int
	med  Medium

	dq       []Datagram
	readable *sim.Cond
	watchers []func()

	// Drops counts datagrams lost to loss injection on send (whole
	// datagram lost when any fragment is).
	Drops int
}

// UDPSocket binds (or returns the existing) datagram socket for host h on
// medium k.
func (cl *Cluster) UDPSocket(h int, k MediumKind) *UDP {
	if s, ok := cl.udpPorts[k][h]; ok {
		return s
	}
	s := &UDP{cl: cl, host: h, med: cl.Medium(k), readable: sim.NewCond(cl.SchedOf(h))}
	cl.udpPorts[k][h] = s
	return s
}

// Host reports the bound host id.
func (u *UDP) Host() int { return u.host }

// MaxDatagram reports the largest datagram the socket accepts (bounded by
// IP fragmentation across the medium MTU; we cap at 8 fragments).
func (u *UDP) MaxDatagram() int { return 8*(u.med.MTU()-UDPIPHeader) - UDPIPHeader }

// SendTo transmits data as one datagram to host dst, charging syscall,
// copy, checksum and protocol costs, fragmenting across the MTU when
// needed. Datagrams are unreliable when the medium injects loss; they are
// never reordered between a host pair (both media are FIFO), matching what
// the paper's reliability layer assumes.
func (u *UDP) SendTo(p *sim.Proc, dst int, data []byte) {
	k := u.cl.Costs
	if len(data) > u.MaxDatagram() {
		panic(fmt.Sprintf("udp: datagram of %d bytes exceeds max %d", len(data), u.MaxDatagram()))
	}
	p.Advance(k.SyscallWrite)
	p.Advance(sim.Duration(len(data)) * (k.CopyPerByte + k.ChecksumPerByte))
	p.Advance(k.UDPPerPacket)
	u.transmit(dst, data)
}

// transmit fragments and delivers one datagram toward dst's socket,
// reassembling at the far side; the whole datagram is lost if any fragment
// is. Safe from event context (used by timer-driven retransmission).
func (u *UDP) transmit(dst int, data []byte) {
	k := u.cl.Costs
	peer := u.cl.udpPorts[u.med.Kind()][dst]
	if peer == nil {
		panic(fmt.Sprintf("udp: no socket bound on host %d/%v", dst, u.med.Kind()))
	}
	payload := make([]byte, len(data))
	copy(payload, data)
	src := u.host

	frag := u.med.MTU() - UDPIPHeader
	nfrags := (len(data) + frag - 1) / frag
	if nfrags == 0 {
		nfrags = 1
	}
	arrived := 0
	lost := false
	for i := 0; i < nfrags; i++ {
		end := (i + 1) * frag
		if end > len(data) {
			end = len(data)
		}
		fragLen := end - i*frag
		if fragLen < 0 {
			fragLen = 0
		}
		ok := u.med.Deliver(u.host, dst, fragLen+UDPIPHeader, DeliverOpts{Droppable: true}, sim.Func(func() {
			arrived++
			// Each complete fragment set yields a datagram, so a duplicated
			// wire frame surfaces as a duplicate datagram (as real IP
			// reassembly would) instead of being silently absorbed.
			if arrived%nfrags == 0 && !lost {
				// Reassembly complete: kernel input processing, then queue.
				// The medium ran us on dst's lane, so the timer and the
				// socket state stay there.
				u.cl.SchedOf(dst).After(k.UDPPerPacket, func() {
					peer.dq = append(peer.dq, Datagram{Src: src, Data: payload})
					peer.readable.Broadcast()
					for _, fn := range peer.watchers {
						fn()
					}
				})
			}
		}))
		if !ok {
			lost = true
		}
	}
	if lost {
		u.Drops++
	}
}

// RecvFrom blocks until a datagram arrives, copies it into buf (truncating
// silently like the BSD API), and reports the byte count and source host.
func (u *UDP) RecvFrom(p *sim.Proc, buf []byte) (int, int) {
	k := u.cl.Costs
	p.Advance(k.SyscallRead + u.cl.readExtra(u.med.Kind()))
	if len(u.dq) == 0 {
		for len(u.dq) == 0 {
			u.readable.Wait(p)
		}
		p.Advance(k.KernelWakeup)
	}
	d := u.dq[0]
	u.dq = u.dq[1:]
	n := copy(buf, d.Data)
	p.Advance(sim.Duration(n) * k.CopyPerByte)
	return n, d.Src
}

// Readable reports whether RecvFrom would return without blocking.
func (u *UDP) Readable() bool { return len(u.dq) > 0 }

// sendRaw transmits a datagram from kernel context (timer-driven
// retransmission): wire and kernel delivery only, no user-side charges.
func (u *UDP) sendRaw(dst int, data []byte) {
	u.transmit(dst, data)
}

// OnReadable registers an arrival callback (event context).
func (u *UDP) OnReadable(fn func()) { u.watchers = append(u.watchers, fn) }
