package sim

// Freelist recycles pooled event records (packets, segments, deliveries)
// per lane. A record is drawn on the lane that creates it and put back on
// the lane whose event retires it, so each lane's list is only ever
// touched from that lane's own context. The per-lane lists are allocated
// when the Freelist is built and never resized afterwards, so lanes running
// in parallel never race on the list of lists; only a lane's own stack
// grows, from its own context.
type Freelist[T any] struct {
	lanes []laneFree[T]
}

// freelistCap bounds one lane's list.
const freelistCap = 1024

// laneFree is one lane's stack, padded to its own cache line so lanes
// running in parallel do not share one.
type laneFree[T any] struct {
	items []*T
	_     [40]byte
}

// NewFreelist returns a Freelist with one list per lane of s's shard, or a
// single list when s is a standalone scheduler.
func NewFreelist[T any](s *Scheduler) *Freelist[T] {
	n := 1
	if s.shard != nil {
		n = len(s.shard.lanes)
	}
	return &Freelist[T]{lanes: make([]laneFree[T], n)}
}

// Get pops a record from the list of s's lane, or allocates a zero one when
// the list is empty. Call it from s's lane context.
func (f *Freelist[T]) Get(s *Scheduler) *T {
	l := &f.lanes[s.lane]
	n := len(l.items)
	if n == 0 {
		return new(T)
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put pushes x onto the list of s's lane. Call it from s's lane context,
// once nothing else refers to x; the caller clears any references x holds.
func (f *Freelist[T]) Put(s *Scheduler, x *T) {
	l := &f.lanes[s.lane]
	if len(l.items) < freelistCap {
		l.items = append(l.items, x)
	}
}
