package core

// Inbox is a transport's queue of arrived packets awaiting Poll: a FIFO of
// Packet values, so arrivals need no allocation of their own. It keeps a
// consumed-prefix index instead of shifting its head, and reuses its array
// once drained (or compacts it when a full array still has a consumed
// prefix), so steady-state traffic neither shifts nor reallocates.
type Inbox struct {
	q    []Packet
	head int    // q[:head] is consumed
	cur  Packet // the packet last returned by Pop
}

// Push appends pkt.
func (b *Inbox) Push(pkt Packet) {
	if b.head > 0 && len(b.q) == cap(b.q) {
		n := copy(b.q, b.q[b.head:])
		clear(b.q[n:])
		b.q, b.head = b.q[:n], 0
	}
	b.q = append(b.q, pkt)
}

// Pop removes the oldest packet and returns it, or nil when the inbox is
// empty. The result points into the inbox and stays valid until the next
// Pop; Pushes in between do not disturb it.
func (b *Inbox) Pop() *Packet {
	if b.head == len(b.q) {
		return nil
	}
	b.cur = b.q[b.head]
	b.q[b.head] = Packet{}
	b.head++
	if b.head == len(b.q) {
		b.q, b.head = b.q[:0], 0
	}
	return &b.cur
}

// Len reports the number of packets waiting.
func (b *Inbox) Len() int { return len(b.q) - b.head }
