package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// matchQueue is the method set shared by the indexed Matcher and the
// LinearMatcher oracle; the behavioral tests run against both and the
// differential tests check them against each other.
type matchQueue interface {
	PostRecv(*Request) *InMsg
	Arrive(Envelope) *Request
	AddUnexpected(*InMsg)
	Probe(src, tag, ctx int) *InMsg
	CancelRecv(*Request) bool
	PostedLen() int
	UnexpectedLen() int
}

var (
	_ matchQueue = (*Matcher)(nil)
	_ matchQueue = (*LinearMatcher)(nil)
)

// forEachMatcher runs f once per matcher implementation.
func forEachMatcher(t *testing.T, f func(t *testing.T, mk func() matchQueue)) {
	t.Helper()
	t.Run("indexed", func(t *testing.T) { f(t, func() matchQueue { return &Matcher{} }) })
	t.Run("linear", func(t *testing.T) { f(t, func() matchQueue { return &LinearMatcher{} }) })
}

// runMatchDiff interprets ops as a randomized post/arrive/probe/cancel
// sequence (wildcards included), drives the indexed matcher and the linear
// oracle in lockstep, and reports the first divergence. Each op consumes
// four bytes: opcode, source, tag, context.
func runMatchDiff(ops []byte) error {
	var idx Matcher
	var lin LinearMatcher
	var posted []*Request
	var sendSeq uint64
	for step := 0; len(ops) >= 4; step++ {
		op, s, tg, cx := ops[0]%8, ops[1], ops[2], ops[3]
		ops = ops[4:]
		// Small rank/tag/context spaces force collisions, wildcard overlap
		// and deep queues; -1 is AnySource/AnyTag.
		src := int(s%5) - 1
		tag := int(tg%5) - 1
		ctx := int(cx % 2)
		switch op {
		case 0, 1, 2: // post a receive (pattern may be wildcard)
			r := &Request{IsRecv: true, Env: Envelope{Source: src, Tag: tag, Context: ctx}}
			mi := idx.PostRecv(r)
			ml := lin.PostRecv(r)
			if mi != ml {
				return fmt.Errorf("step %d: PostRecv(%d,%d,%d): indexed=%v linear=%v", step, src, tag, ctx, mi, ml)
			}
			if mi == nil {
				posted = append(posted, r)
			}
		case 3, 4, 5: // an envelope arrives (always concrete)
			if src < 0 {
				src = 0
			}
			if tag < 0 {
				tag = 0
			}
			sendSeq++
			env := Envelope{Source: src, Tag: tag, Context: ctx, Seq: sendSeq, SendID: int64(sendSeq)}
			ri := idx.Arrive(env)
			rl := lin.Arrive(env)
			if ri != rl {
				return fmt.Errorf("step %d: Arrive(%d,%d,%d): indexed=%v linear=%v", step, src, tag, ctx, ri, rl)
			}
			if ri == nil {
				msg := &InMsg{Env: env}
				idx.AddUnexpected(msg)
				lin.AddUnexpected(msg)
			}
		case 6: // probe (pattern may be wildcard)
			pi := idx.Probe(src, tag, ctx)
			pl := lin.Probe(src, tag, ctx)
			if pi != pl {
				return fmt.Errorf("step %d: Probe(%d,%d,%d): indexed=%v linear=%v", step, src, tag, ctx, pi, pl)
			}
		case 7: // cancel a previously posted receive (possibly already matched)
			if len(posted) == 0 {
				continue
			}
			i := int(s) % len(posted)
			r := posted[i]
			ci := idx.CancelRecv(r)
			cl := lin.CancelRecv(r)
			if ci != cl {
				return fmt.Errorf("step %d: CancelRecv: indexed=%v linear=%v", step, ci, cl)
			}
			if ci {
				posted = append(posted[:i], posted[i+1:]...)
			}
		}
		if idx.PostedLen() != lin.PostedLen() || idx.UnexpectedLen() != lin.UnexpectedLen() {
			return fmt.Errorf("step %d: depths diverged: indexed (%d,%d) linear (%d,%d)",
				step, idx.PostedLen(), idx.UnexpectedLen(), lin.PostedLen(), lin.UnexpectedLen())
		}
	}
	return nil
}

// TestMatchDifferentialQuick runs the lockstep driver over random op
// streams (the CI race job runs this under -race).
func TestMatchDifferentialQuick(t *testing.T) {
	prop := func(ops []byte) bool {
		if err := runMatchDiff(ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchDifferentialLong drives one long adversarial stream so queues
// grow deep enough to exercise bin compaction and freelist reuse.
func TestMatchDifferentialLong(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := make([]byte, 40000)
	rng.Read(ops)
	if err := runMatchDiff(ops); err != nil {
		t.Fatal(err)
	}
}

// FuzzMatchDiff is the native fuzz entry for the differential driver; the
// seed corpus runs in every `go test`.
func FuzzMatchDiff(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 1, 2, 0})
	f.Add([]byte{2, 0, 0, 1, 5, 0, 0, 1, 6, 0, 0, 1, 7, 0, 0, 1})
	rng := rand.New(rand.NewSource(11))
	seed := make([]byte, 400)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runMatchDiff(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMatcherArriveAllocFree locks the steady-state arrival path at zero
// allocations: after warmup, Arrive + re-post cycles must not touch the
// heap.
func TestMatcherArriveAllocFree(t *testing.T) {
	var m Matcher
	const n = 64
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{IsRecv: true, Env: Envelope{Source: i % 4, Tag: i, Context: 0}}
		m.PostRecv(reqs[i])
	}
	env := Envelope{Source: (n - 1) % 4, Tag: n - 1, Context: 0}
	cycle := func() {
		r := m.Arrive(env)
		if r == nil {
			t.Fatal("arrival missed posted receive")
		}
		m.PostRecv(r)
	}
	for i := 0; i < 512; i++ { // warm bins, freelists and slice capacity
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("steady-state Arrive/PostRecv allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMatcherUnexpectedAllocFree locks the unexpected-queue cycle
// (arrival enqueued, then matched by a later receive) at zero steady-state
// allocations.
func TestMatcherUnexpectedAllocFree(t *testing.T) {
	var m Matcher
	msg := &InMsg{Env: Envelope{Source: 1, Tag: 3, Context: 0}}
	req := &Request{IsRecv: true, Env: Envelope{Source: AnySource, Tag: 3, Context: 0}}
	cycle := func() {
		m.AddUnexpected(msg)
		if got := m.PostRecv(req); got != msg {
			t.Fatal("unexpected message not matched")
		}
	}
	for i := 0; i < 512; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("steady-state unexpected cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMatcherBinsBounded runs 10k exchanges, each on a fresh tag as halo
// steps use them, and requires the bin maps to hold only what is in
// flight: a drained bin is retired, including the step-specific sibling
// bins of a consumed unexpected message, which hold only its tombstone.
func TestMatcherBinsBounded(t *testing.T) {
	for _, tc := range []struct {
		name        string
		postedFirst bool
		src         int // receive pattern's source
	}{
		{"posted-first", true, 1},
		{"unexpected-first", false, 1},
		{"unexpected-first-anysource", false, AnySource},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m Matcher
			for tag := 0; tag < 10000; tag++ {
				env := Envelope{Source: 1, Tag: tag, Context: 0}
				req := &Request{IsRecv: true, Env: Envelope{Source: tc.src, Tag: tag, Context: 0}}
				if tc.postedFirst {
					m.PostRecv(req)
					if m.Arrive(env) != req {
						t.Fatalf("tag %d: arrival missed its posted receive", tag)
					}
				} else {
					msg := &InMsg{Env: env}
					m.AddUnexpected(msg)
					if m.PostRecv(req) != msg {
						t.Fatalf("tag %d: receive missed its unexpected message", tag)
					}
				}
			}
			if n := len(m.posted) + len(m.unex); n != 0 {
				t.Errorf("%d bins still mapped after every exchange completed", n)
			}
			if n := len(m.qFree); n > 4 {
				t.Errorf("%d retired bins kept, want at most the 4 one exchange uses", n)
			}
		})
	}
}

// TestBufPoolRecycles checks class rounding, hit/miss accounting and the
// bytes-recycled counter.
func TestBufPoolRecycles(t *testing.T) {
	acct := NewAcct()
	p := NewBufPool(acct)
	b := p.Get(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100/128", len(b), cap(b))
	}
	p.Put(b)
	b2 := p.Get(120)
	if cap(b2) != 128 {
		t.Fatalf("recycled Get(120) cap %d, want 128", cap(b2))
	}
	if acct.Count[PoolHit] != 1 || acct.Count[PoolMiss] != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1", acct.Count[PoolHit], acct.Count[PoolMiss])
	}
	if acct.Count[PoolRecycled] != 128 {
		t.Fatalf("bytes recycled = %d, want 128", acct.Count[PoolRecycled])
	}
	// Oversized buffers bypass the pool entirely.
	huge := p.Get(2 << 20)
	p.Put(huge)
	if got := p.Get(2 << 20); &got[0] == &huge[0] {
		t.Fatal("oversized buffer was pooled")
	}
	// A nil pool degrades to plain allocation.
	var np *BufPool
	if n := len(np.Get(64)); n != 64 {
		t.Fatalf("nil pool Get returned %d bytes", n)
	}
	np.Put(b)
}
