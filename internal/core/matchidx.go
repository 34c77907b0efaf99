package core

// Indexed matching: the receive-side hot path of the low-latency design.
//
// The paper's central measurement is that matching and dispatch overhead —
// not wire time — dominates small-message latency (104 µs round trip over
// a 52 µs raw tport exchange). A linear scan over flat queues makes that
// overhead grow with the number of posted receives and queued unexpected
// messages; this file replaces it with constant-time bins while keeping
// MPI's ordering semantics bit-for-bit identical to the LinearMatcher
// oracle (see matchdiff_test.go).
//
// Structure. Matching state lives in FIFO bins keyed by (source, tag,
// context), with AnySource/AnyTag (-1) legal key components:
//
//   - posted receives sit in exactly one bin, keyed by their pattern —
//     (s,t,c), (s,*,c), (*,t,c) or (*,*,c);
//   - unexpected messages are indexed under all four generalizations of
//     their concrete arrival triple, sharing one entry between bins.
//
// Every entry carries a ticket from a single global sequence counter
// stamped at post/arrival time. An arriving envelope consults at most the
// four pattern bins that could match it and takes the head with the
// smallest ticket; a posted receive (or probe) with any pattern — wildcard
// or exact — reads exactly one bin, whose FIFO order is arrival order.
// Removal from the three sibling bins of a consumed unexpected entry is
// lazy: entries are tombstoned and reclaimed when a bin is next read, or
// compacted when tombstones outnumber live entries. Each bin counts its
// live entries, so consuming an entry updates its siblings' counts
// eagerly, and a bin whose count reaches zero is retired at once: its key
// leaves the map and the bin goes to a freelist. Workloads that use a new
// tag per step therefore keep only the bins they are using.
//
// Non-overtaking (proof sketch, expanded in DESIGN.md §10). For a fixed
// (source, context) the transports deliver envelopes in send order, so
// arrival tickets of same-(source,context) messages are ordered by send
// sequence. A receive pattern maps to one bin; within a bin candidates are
// FIFO by ticket, so the earliest matchable message wins. An arrival
// chooses among bin heads by minimum post ticket, so the earliest posted
// matching receive wins. Both directions therefore reproduce exactly the
// linear scan's choice, which is the MPI-required one.
//
// Allocation. Entries and bins come from freelists and bin slices are
// recycled with their bins, so steady-state matching allocates nothing.
// Only the bin maps can still allocate, when inserting new keys after
// deletions makes the runtime rehash a map.

// binKey identifies one matching bin: an arrival triple, a posted pattern,
// or one of an arrival's four generalizations (source and tag may be
// AnySource/AnyTag; the context is always exact). The triple is packed
// into one word — tag(32) | source(16) | context(16), mirroring the wire
// header's field widths — so bin maps take Go's single-word fast path.
type binKey uint64

func mkKey(src, tag, ctx int) binKey {
	return binKey(uint32(int32(tag))) | binKey(uint16(src))<<32 | binKey(uint16(ctx))<<48
}

// matchEnt is one queue node. Posted entries are referenced by exactly one
// bin; unexpected entries by up to four. refs counts the bins whose live
// window still contains the entry: it drops as bins skip or compact the
// tombstone, and the entry returns to the freelist at zero.
type matchEnt struct {
	req     *Request // posted side (nil for unexpected entries)
	msg     *InMsg   // unexpected side (nil for posted entries)
	seq     uint64   // global post/arrival ticket
	removed bool     // tombstone: consumed or cancelled
	refs    int8
}

// entQ is one FIFO bin with amortized O(1) pop and in-place compaction.
// The bin owns one reference per entry in items[head:].
type entQ struct {
	items     []*matchEnt
	head      int
	live      int    // entries in items[head:] not tombstoned
	compactAt int    // window size that triggers the next compaction
	key       binKey // the bin's key in its map
}

const minCompactWindow = 32

// push appends ent (taking a reference), compacting when the slice — live
// window plus consumed prefix — outgrows twice the live population. This
// keeps a bin's slice at O(live) and the amortized cost per push at O(1);
// a bin that drains is retired (Matcher.retire), which resets its slice.
func (q *entQ) push(ent *matchEnt, m *Matcher) {
	ent.refs++
	q.live++
	q.items = append(q.items, ent)
	if q.compactAt == 0 {
		q.compactAt = minCompactWindow
	}
	if len(q.items) >= q.compactAt {
		live := q.compact(m)
		q.compactAt = 2*live + minCompactWindow
	}
}

// compact drops tombstoned entries from the live window, releasing their
// references, and reports the number of live entries kept.
func (q *entQ) compact(m *Matcher) int {
	w := 0
	for _, ent := range q.items[q.head:] {
		if ent.removed {
			m.unref(ent)
		} else {
			q.items[w] = ent
			w++
		}
	}
	for i := w; i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = q.items[:w]
	q.head = 0
	return w
}

// first returns the earliest live entry without consuming it, reclaiming
// any tombstones in front of it. A mapped bin always holds a live entry,
// since a bin is retired when its last one goes.
func (q *entQ) first(m *Matcher) *matchEnt {
	for q.head < len(q.items) {
		ent := q.items[q.head]
		if !ent.removed {
			return ent
		}
		q.items[q.head] = nil
		q.head++
		m.unref(ent)
	}
	return nil
}

// take consumes a live entry previously returned by first: tombstone it,
// advance past it, and release this bin's reference. The sibling bins of
// an unexpected entry observe the tombstone lazily.
func (q *entQ) take(ent *matchEnt, m *Matcher) {
	ent.removed = true
	q.items[q.head] = nil
	q.head++
	q.live--
	m.unref(ent)
}

// Matcher implements MPI's matching semantics for one rank with indexed
// (source, tag, context) bins: constant-time posting, arrival, and probing
// regardless of queue depth, identical match selection to LinearMatcher,
// and no steady-state allocation. The zero value is ready to use.
//
// Like MPI_Probe, the Probe method sees only the unexpected queue; posted
// receives are deliberately invisible to it (see Probe).
type Matcher struct {
	seq     uint64 // global post/arrival ticket counter
	posted  map[binKey]*entQ
	unex    map[binKey]*entQ
	entFree []*matchEnt
	qFree   []*entQ
	postedN int
	unexN   int

	// Posted-pattern population by wildcard class. Arrive consults a
	// generalization bin only when its class is populated, so an all-exact
	// workload pays for exactly one map lookup per arrival.
	wTag  int // patterns (src, AnyTag, ctx)
	wSrc  int // patterns (AnySource, tag, ctx)
	wBoth int // patterns (AnySource, AnyTag, ctx)
}

// countPattern books a posted pattern into its wildcard-class population
// (delta +1 on post, -1 on match or cancel).
func (m *Matcher) countPattern(env Envelope, delta int) {
	switch {
	case env.Source == AnySource && env.Tag == AnyTag:
		m.wBoth += delta
	case env.Source == AnySource:
		m.wSrc += delta
	case env.Tag == AnyTag:
		m.wTag += delta
	}
}

func (m *Matcher) newEnt() *matchEnt {
	if n := len(m.entFree); n > 0 {
		ent := m.entFree[n-1]
		m.entFree[n-1] = nil
		m.entFree = m.entFree[:n-1]
		return ent
	}
	return &matchEnt{}
}

// unref releases one bin's reference; the last reference recycles the
// entry.
func (m *Matcher) unref(ent *matchEnt) {
	ent.refs--
	if ent.refs <= 0 {
		*ent = matchEnt{}
		m.entFree = append(m.entFree, ent)
	}
}

// bin returns the queue for key in mp, creating (or recycling a retired
// one) on first use.
func (m *Matcher) bin(mp map[binKey]*entQ, key binKey) *entQ {
	if q := mp[key]; q != nil {
		return q
	}
	var q *entQ
	if n := len(m.qFree); n > 0 {
		q = m.qFree[n-1]
		m.qFree[n-1] = nil
		m.qFree = m.qFree[:n-1]
	} else {
		q = &entQ{}
	}
	q.key = key
	mp[key] = q
	return q
}

// retire unmaps a bin with no live entries, releasing its tombstones, and
// keeps it (with its slice) for reuse by bin.
func (m *Matcher) retire(mp map[binKey]*entQ, q *entQ) {
	for _, ent := range q.items[q.head:] {
		m.unref(ent)
	}
	clear(q.items)
	q.items, q.head, q.compactAt = q.items[:0], 0, 0
	delete(mp, q.key)
	m.qFree = append(m.qFree, q)
}

// unexKeys lists the distinct bins an unexpected message is indexed under:
// its arrival triple and that triple's generalizations, degenerate
// triples collapsing to fewer.
func unexKeys(env Envelope) (keys [4]binKey, n int) {
	src, tag, ctx := env.Source, env.Tag, env.Context
	keys[0], n = mkKey(src, tag, ctx), 1
	if tag != AnyTag {
		keys[n], n = mkKey(src, AnyTag, ctx), n+1
	}
	if src != AnySource {
		keys[n], n = mkKey(AnySource, tag, ctx), n+1
		if tag != AnyTag {
			keys[n], n = mkKey(AnySource, AnyTag, ctx), n+1
		}
	}
	return keys, n
}

// PostRecv registers r and returns the earliest unexpected message that
// matches it, removing that message from the queue; it returns nil when no
// unexpected message matches, leaving r posted. The pattern — wildcard or
// not — names exactly one unexpected bin, whose FIFO order is arrival
// order, so the lookup is O(1) amortized.
func (m *Matcher) PostRecv(r *Request) *InMsg {
	key := mkKey(r.Env.Source, r.Env.Tag, r.Env.Context)
	if q := m.unex[key]; q != nil {
		ent := q.first(m)
		msg := ent.msg
		q.take(ent, m)
		m.unexN--
		// The message leaves its sibling bins too; they see the tombstone
		// lazily but count it out now.
		keys, n := unexKeys(msg.Env)
		for _, k := range keys[:n] {
			sq := m.unex[k]
			if k != key {
				sq.live--
			}
			if sq.live == 0 {
				m.retire(m.unex, sq)
			}
		}
		return msg
	}
	if m.posted == nil {
		m.posted = make(map[binKey]*entQ)
	}
	ent := m.newEnt()
	ent.req = r
	m.seq++
	ent.seq = m.seq
	m.bin(m.posted, key).push(ent, m)
	m.postedN++
	m.countPattern(r.Env, +1)
	return nil
}

// consider folds one pattern bin's head into the running minimum-ticket
// candidate for Arrive.
func (m *Matcher) consider(key binKey, best *matchEnt, bestQ *entQ) (*matchEnt, *entQ) {
	q := m.posted[key]
	if q == nil {
		return best, bestQ
	}
	if ent := q.first(m); best == nil || ent.seq < best.seq {
		return ent, q
	}
	return best, bestQ
}

// Arrive matches an arriving envelope against the posted queue, removing
// and returning the earliest matching receive. When nothing matches it
// returns nil; the caller is responsible for queueing the message as
// unexpected (via AddUnexpected) if it should be retained. Of the four
// pattern bins an arrival can match — exact, AnyTag, AnySource, both —
// only those whose wildcard class is populated are consulted; the head
// with the smallest post ticket is the earliest posted matching receive.
func (m *Matcher) Arrive(env Envelope) *Request {
	if m.posted == nil {
		return nil
	}
	src, tag, ctx := env.Source, env.Tag, env.Context
	best, bestQ := m.consider(mkKey(src, tag, ctx), nil, nil)
	if m.wTag > 0 && tag != AnyTag {
		best, bestQ = m.consider(mkKey(src, AnyTag, ctx), best, bestQ)
	}
	if src != AnySource {
		if m.wSrc > 0 {
			best, bestQ = m.consider(mkKey(AnySource, tag, ctx), best, bestQ)
		}
		if m.wBoth > 0 && tag != AnyTag {
			best, bestQ = m.consider(mkKey(AnySource, AnyTag, ctx), best, bestQ)
		}
	}
	if best == nil {
		return nil
	}
	req := best.req
	bestQ.take(best, m)
	if bestQ.live == 0 {
		m.retire(m.posted, bestQ)
	}
	m.postedN--
	m.countPattern(req.Env, -1)
	return req
}

// AddUnexpected queues msg in arrival order, indexing it under the four
// generalizations of its arrival triple — exact, (src,*,ctx), (*,tag,ctx),
// (*,*,ctx), degenerate triples collapsing to fewer — so any posted
// pattern finds it in its own bin.
func (m *Matcher) AddUnexpected(msg *InMsg) {
	if m.unex == nil {
		m.unex = make(map[binKey]*entQ)
	}
	ent := m.newEnt()
	ent.msg = msg
	m.seq++
	ent.seq = m.seq
	keys, n := unexKeys(msg.Env)
	for _, k := range keys[:n] {
		m.bin(m.unex, k).push(ent, m)
	}
	m.unexN++
}

// Probe returns the earliest unexpected message matching (src, tag, ctx)
// without removing it, or nil.
//
// Like MPI_Probe, Probe sees only the unexpected queue — by design,
// posted-receive state is invisible to it. A message that already matched
// a posted receive is in delivery (its payload is being copied or its
// rendezvous accepted); MPI defines probe as "is there a message I have
// not yet asked to receive", so such messages must not reappear here.
func (m *Matcher) Probe(src, tag, ctx int) *InMsg {
	q := m.unex[mkKey(src, tag, ctx)]
	if q == nil {
		return nil
	}
	return q.first(m).msg
}

// CancelRecv removes a posted receive, reporting whether it was still
// queued (i.e. not yet matched). The pattern names the one bin holding r;
// the scan is bounded by that bin's depth and cancellation is rare.
func (m *Matcher) CancelRecv(r *Request) bool {
	q := m.posted[mkKey(r.Env.Source, r.Env.Tag, r.Env.Context)]
	if q == nil {
		return false
	}
	for _, ent := range q.items[q.head:] {
		if ent.req == r && !ent.removed {
			ent.removed = true // reclaimed when the bin is next read
			q.live--
			if q.live == 0 {
				m.retire(m.posted, q)
			}
			m.postedN--
			m.countPattern(r.Env, -1)
			return true
		}
	}
	return false
}

// PostedLen reports the posted-queue depth.
func (m *Matcher) PostedLen() int { return m.postedN }

// UnexpectedLen reports the unexpected-queue depth.
func (m *Matcher) UnexpectedLen() int { return m.unexN }
