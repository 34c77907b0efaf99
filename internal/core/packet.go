package core

import "repro/internal/sim"

// PacketKind enumerates the protocol messages exchanged by engines. The
// 1-byte "message type" of the paper's 25-byte cluster header carries
// exactly this discriminator.
type PacketKind uint8

const (
	// PktEager carries an envelope with the payload piggybacked; the
	// payload is deposited in receiver-side bounce space (the Meiko
	// per-sender slot, or the cluster's reserved credit memory).
	PktEager PacketKind = iota
	// PktRTS is a rendezvous envelope: payload stays at the sender until
	// the receiver matches and accepts.
	PktRTS
	// PktCTS flows back to the sender once an RTS matched; it names the
	// sender request that may now transmit its payload.
	PktCTS
	// PktData is a rendezvous payload arriving into the posted buffer.
	PktData
	// PktSyncAck acknowledges the match of a synchronous-mode eager send.
	PktSyncAck
	// PktCredit returns freed bounce space to a sender (cluster transport;
	// usually piggybacked, explicit when traffic is one-sided).
	PktCredit
	// PktRTR (ready-to-receive) advertises a freshly posted rendezvous-sized
	// receive back to its prospective sender — the RDMA-write rendezvous
	// fast path (MPICH2/InfiniBand style): the sender may then write the
	// payload directly into the posted buffer, skipping the RTS/CTS round
	// trip. Transports that implement RecvAdvertiser consume it internally;
	// it never surfaces to the engine.
	PktRTR
	// PktRMALock requests a passive-target window lock (Env.Tag carries the
	// window id; Env.Count is 1 for exclusive, 0 for shared).
	PktRMALock
	// PktRMAUnlock releases a passive-target window lock.
	PktRMAUnlock
	// PktRMAGrant notifies a waiting origin that its lock request was
	// granted (Env.Source is the target rank, Env.Tag the window id).
	PktRMAGrant
	// PktRevoke is the reliable-broadcast notice that a communicator was
	// revoked (Env.Context carries the revoked p2p context id). Every engine
	// re-forwards it on first receipt, so it reaches all survivors even if
	// the revoker dies mid-broadcast.
	PktRevoke
)

func (k PacketKind) String() string {
	switch k {
	case PktEager:
		return "eager"
	case PktRTS:
		return "rts"
	case PktCTS:
		return "cts"
	case PktData:
		return "data"
	case PktSyncAck:
		return "syncack"
	case PktCredit:
		return "credit"
	case PktRTR:
		return "rtr"
	case PktRMALock:
		return "rma-lock"
	case PktRMAUnlock:
		return "rma-unlock"
	case PktRMAGrant:
		return "rma-grant"
	case PktRevoke:
		return "revoke"
	default:
		return "unknown"
	}
}

// Packet is a protocol message surfaced to an engine by its transport.
type Packet struct {
	Kind   PacketKind
	Env    Envelope
	Data   []byte   // eager payload (bounce storage owned by transport until Release)
	ReqID  int64    // CTS/SyncAck: sender request; Data: receiver request
	Handle int64    // transport cookie threaded from RTS to Accept
	Pool   *BufPool // the receiving engine's pool, which takes Data back after its copy-out; nil if unpooled
}

// Transport moves bytes and charges platform time on behalf of an Engine.
// The three primitives mirror the paper's §5.1 list: sending an envelope,
// sending an envelope with piggybacked data, and setting remote events /
// sending DMA data. Implementations exist for the Meiko (DMA, transactions,
// per-sender envelope slots) and the cluster (TCP/UDP streams, byte credits).
//
// All methods taking a *sim.Proc run in that proc's context and may park it
// (flow control) and charge it time. Delivery upcalls into the Engine
// (SendDone, RecvDataDone, Wake) may instead come from event context.
type Transport interface {
	// MaxEager is the eager/rendezvous crossover in payload bytes
	// (180 on the Meiko, per Figure 1).
	MaxEager() int

	// Send transmits req's message: eager when req.Env.Count <= MaxEager,
	// rendezvous RTS otherwise. Send never blocks (MPI_Isend semantics):
	// when flow control (an envelope slot or byte credits) is exhausted,
	// the transport queues the message internally and transmits when space
	// frees — in issue order, so MPI's non-overtaking rule survives a mix
	// of queued eager messages and rendezvous envelopes. The transport
	// marks the local send complete via Engine.SendDone (or synchronously
	// before returning).
	Send(p *sim.Proc, req *Request)

	// Accept informs the transport that the receiver matched RTS msg with
	// posted receive req: it issues the CTS and arranges for the payload to
	// land in req.Buf, then calls Engine.RecvDataDone.
	Accept(p *sim.Proc, msg *InMsg, req *Request)

	// SendPayload handles a CTS that surfaced through Poll (stream
	// transports, where the sending process itself must push the data):
	// transmit req's payload toward the destination named in pkt.
	SendPayload(p *sim.Proc, req *Request, pkt *Packet)

	// Control sends a small control message (PktSyncAck, PktCredit).
	Control(p *sim.Proc, dst int, kind PacketKind, env Envelope)

	// Release returns n bytes of eager bounce space for messages from src
	// (frees the Meiko slot / returns cluster credits).
	Release(p *sim.Proc, src int, n int)

	// Poll surfaces the next arrived packet, charging p the platform's
	// per-packet receive costs (kernel reads, slot scans); nil when idle.
	// The packet belongs to the transport (see Inbox.Pop) and is valid only
	// until the next Poll: the engine copies out what it keeps.
	Poll(p *sim.Proc) *Packet

	// Pending cheaply reports whether Poll would surface a packet.
	Pending() bool
}
