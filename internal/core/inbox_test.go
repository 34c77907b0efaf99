package core

import "testing"

func seqPacket(i int) Packet { return Packet{Kind: PktEager, Env: Envelope{Seq: uint64(i)}} }

// Packets leave in arrival order, including across the array growing and
// compacting under a consumed prefix.
func TestInboxFIFO(t *testing.T) {
	var b Inbox
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			b.Push(seqPacket(next))
			next++
		}
		for i := 0; i < round%5+1; i++ {
			pkt := b.Pop()
			if pkt == nil {
				break
			}
			if got := int(pkt.Env.Seq); got != want {
				t.Fatalf("popped packet %d, want %d", got, want)
			}
			want++
		}
		if b.Len() != next-want {
			t.Fatalf("Len %d, want %d", b.Len(), next-want)
		}
	}
	for pkt := b.Pop(); pkt != nil; pkt = b.Pop() {
		if got := int(pkt.Env.Seq); got != want {
			t.Fatalf("popped packet %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d packets, pushed %d", want, next)
	}
}

// A packet returned by Pop stays intact while later arrivals are pushed
// (a CTS handler may parse more of the stream before it is done with the
// packet), until the next Pop.
func TestInboxPopSurvivesPush(t *testing.T) {
	var b Inbox
	b.Push(Packet{Kind: PktCTS, ReqID: 7, Handle: 42, Data: []byte("x")})
	b.Push(seqPacket(1))
	pkt := b.Pop()
	for i := 2; i < 100; i++ {
		b.Push(seqPacket(i))
	}
	if pkt.Kind != PktCTS || pkt.ReqID != 7 || pkt.Handle != 42 || string(pkt.Data) != "x" {
		t.Fatalf("held packet changed under Push: %+v", *pkt)
	}
	if got := b.Pop(); got.Env.Seq != 1 {
		t.Fatalf("next packet has seq %d, want 1", got.Env.Seq)
	}
}

// Steady-state traffic reuses the inbox's array, whether it drains between
// arrivals or always holds a backlog: the array stays near the backlog's
// size instead of growing with the consumed prefix.
func TestInboxAllocFree(t *testing.T) {
	for _, backlog := range []int{0, 1, 5} {
		var b Inbox
		for i := 0; i < backlog; i++ {
			b.Push(seqPacket(i))
		}
		cycle := func() {
			b.Push(seqPacket(0))
			if b.Pop() == nil {
				t.Fatal("empty inbox")
			}
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
			t.Fatalf("backlog %d: Push/Pop allocates %.1f objects, want 0", backlog, allocs)
		}
		if b.Len() != backlog {
			t.Fatalf("backlog %d: Len %d", backlog, b.Len())
		}
		if cap(b.q) > 4*(backlog+1) {
			t.Fatalf("backlog %d: array grew to %d slots", backlog, cap(b.q))
		}
	}
}
