package sim

// Stage models a contended resource shared by the whole world — a switch
// stage, a shared wire segment — as a lane-routable object: the resource's
// state (FIFOs, counters, RNG draws) lives on one home lane, requests from
// any lane detour to that lane deterministically, and completions route
// back out to the destination's lane. On a standalone scheduler every hop
// degrades to an inline call or a plain timer, so single-lane behavior is
// bit-identical to a direct implementation.
//
// The protocol is detour-and-backdate. Request stamps the requester's
// current time t0 and runs the processing callback on the home lane at
// t0 + ε, where ε is the shard's lookahead (zero when standalone, so the
// callback runs inline). Every requester — including one already on the
// home lane — pays the same ε detour, so processing order on the home lane
// equals stamp order: requests stamped earlier are processed earlier, and
// same-instant requests are processed in the deterministic merge order
// (srcLane, srcSeq), which block-mapped worlds make rank order. Inside the
// callback the model reserves its FIFOs *backdated to t0* (FIFO.ReserveAt,
// ExtendBusy from a t0-floored start): queueing arithmetic depends only on
// the stamp and the resource horizon, so the deferred processing computes
// the same occupancy the single-lane kernel computes inline.
//
// Safety: the entry detour lands at t0 + ε, which is always at or beyond
// the sending epoch's horizon (a sender executing inside the window has
// t0 >= T0, so t0 + ε >= T0 + lookahead = H). The exit hop must itself
// clear the horizon of the epoch that processes the request, which holds
// whenever the modeled span from stamp to exit is at least 2ε — media
// validate that bound at construction.
type Stage struct {
	home *Scheduler
	eps  Time // entry detour: the shard lookahead, 0 standalone
}

// NewStage builds a stage homed on the given scheduler (the lane that owns
// the resource's state; lane 0 by convention for world-global resources).
func NewStage(home *Scheduler) *Stage {
	st := &Stage{home: home}
	if home.shard != nil {
		st.eps = home.shard.lookahead
	}
	return st
}

// Home reports the scheduler owning the stage's state. Processing
// callbacks run in its context; local completion timers belong on it.
func (st *Stage) Home() *Scheduler { return st.home }

// Request enters the stage from src's lane context: process runs on the
// home lane with the requester's stamp t0. Standalone, it runs inline
// (t0 = now); sharded, it runs at t0 + lookahead after the deterministic
// merge. process must touch only home-lane state and must backdate its
// reservations to t0.
func (st *Stage) Request(src *Scheduler, process func(t0 Time)) {
	t0 := src.now
	if st.eps == 0 {
		process(t0)
		return
	}
	src.Route(st.home.lane, t0+st.eps, func() { process(t0) })
}

// RequestH is Request for a pooled record: h.Fire runs on the home lane
// where process would have run, inline when standalone. h carries its own
// stamp — src.Now() at this call — and must backdate to it.
func (st *Stage) RequestH(src *Scheduler, h Handler) {
	if st.eps == 0 {
		h.Fire()
		return
	}
	src.RouteH(st.home.lane, src.now+st.eps, h)
}

// Exit leaves the stage: h runs at t on dstLane. Called from the
// processing callback (home-lane context); t must be at or beyond the
// processing epoch's horizon, which the construction-time span bound
// guarantees.
func (st *Stage) Exit(dstLane int, t Time, h Handler) {
	st.home.RouteH(dstLane, t, h)
}

// At schedules a home-lane-local event (wire completions, counter decay)
// from the processing callback.
func (st *Stage) At(t Time, h Handler) { st.home.AtH(t, h) }
