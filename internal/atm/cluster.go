package atm

import (
	"repro/internal/sim"
)

// Cluster is the modeled testbed: n workstation hosts attached to both the
// shared Ethernet and the ATM switch, as in the paper's evaluation.
//
// A cluster can live on one scheduler (NewCluster) or with its hosts
// pinned to shard lanes (NewShardedCluster): each host's sockets, FIFOs,
// and timers then stay on that host's lane, the ATM switch hop routes
// between lanes, and the shared Ethernet segment homes on lane 0 as a
// sim.Stage. SwitchDelay is the lookahead bound (the Ethernet spans are
// far coarser and accept any lookahead the switch accepts).
type Cluster struct {
	S     *sim.Scheduler
	Costs Costs
	N     int
	Eth   *Ethernet
	Atm   *ATMNet

	// Every protocol stack reaches the wire through these fault injectors
	// (transparent until SetFaults installs a policy). On a sharded
	// cluster each (src, dst) link draws from its own seed-derived RNG
	// stream, so fault decisions are independent of lane interleaving;
	// single-lane runs keep the legacy world-global stream bit-for-bit.
	ethInj, atmInj *Injector

	scheds []*sim.Scheduler // per-host lane scheduler; nil when unsharded
	laneOf []int

	segFree *sim.Freelist[tcpSeg] // TCP frames in flight, per lane

	udpPorts map[MediumKind]map[int]*UDP // medium -> host -> bound socket
	aal4     map[int]*AAL4               // host -> Fore API socket
	unet     map[int]*UNet               // host -> user-level endpoint
}

// NewCluster builds an n-host cluster on scheduler s.
func NewCluster(s *sim.Scheduler, n int, c Costs) *Cluster {
	cl := &Cluster{
		S:       s,
		Costs:   c,
		N:       n,
		Eth:     NewEthernet(s, c),
		Atm:     NewATMNet(s, n, c),
		segFree: sim.NewFreelist[tcpSeg](s),
		udpPorts: map[MediumKind]map[int]*UDP{
			OverEthernet: {},
			OverATM:      {},
		},
	}
	cl.ethInj = NewInjector(s, cl.Eth)
	cl.atmInj = NewInjector(s, cl.Atm)
	return cl
}

// NewShardedCluster builds a cluster with host i pinned to lane laneOf[i].
// Cl.S is lane 0's scheduler (world-global bookkeeping); per-host work
// must use SchedOf.
func NewShardedCluster(sh *sim.Shard, laneOf []int, c Costs) *Cluster {
	n := len(laneOf)
	cl := &Cluster{
		S:       sh.Lane(0),
		Costs:   c,
		N:       n,
		Eth:     NewShardedEthernet(sh, laneOf, c),
		Atm:     NewShardedATMNet(sh, laneOf, c),
		laneOf:  laneOf,
		segFree: sim.NewFreelist[tcpSeg](sh.Lane(0)),
		udpPorts: map[MediumKind]map[int]*UDP{
			OverEthernet: {},
			OverATM:      {},
		},
	}
	for _, l := range laneOf {
		cl.scheds = append(cl.scheds, sh.Lane(l))
	}
	cl.ethInj = NewInjector(cl.S, cl.Eth)
	cl.atmInj = NewInjector(cl.S, cl.Atm)
	cl.ethInj.Shard(n, cl.SchedOf)
	cl.atmInj.Shard(n, cl.SchedOf)
	return cl
}

// SchedOf reports host h's scheduler: its shard lane when sharded, the
// cluster scheduler otherwise. Per-host protocol state — socket buffers,
// conds, retransmit timers — must live on it.
func (cl *Cluster) SchedOf(h int) *sim.Scheduler {
	if cl.scheds == nil {
		return cl.S
	}
	return cl.scheds[h]
}

// LaneOf reports host h's lane (0 when unsharded).
func (cl *Cluster) LaneOf(h int) int {
	if cl.laneOf == nil {
		return 0
	}
	return cl.laneOf[h]
}

// Medium returns the requested wire, behind its fault injector.
func (cl *Cluster) Medium(k MediumKind) Medium {
	return cl.Injector(k)
}

// Injector returns the fault injector in front of medium k.
func (cl *Cluster) Injector(k MediumKind) *Injector {
	if k == OverEthernet {
		return cl.ethInj
	}
	return cl.atmInj
}

// SetFaults installs one fault policy on both media (each injector draws
// from its own stream of the policy seed).
func (cl *Cluster) SetFaults(f Faults) error {
	if err := cl.ethInj.Set(f); err != nil {
		return err
	}
	return cl.atmInj.Set(f)
}

// readExtra is the per-read stack cost that differs between the Ethernet
// driver and the Fore STREAMS stack (Table 1's 65 vs 85 µs reads).
func (cl *Cluster) readExtra(k MediumKind) sim.Duration {
	if k == OverEthernet {
		return cl.Costs.ReadExtraEth
	}
	return cl.Costs.ReadExtraATM
}
