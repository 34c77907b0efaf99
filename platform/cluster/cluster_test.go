package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/mpi"
)

func pingPong(t *testing.T, cfg Config, n, iters int) time.Duration {
	t.Helper()
	cfg.Hosts = 2
	var rtt time.Duration
	_, err := Run(cfg, func(c *mpi.Comm) error {
		data := make([]byte, n)
		buf := make([]byte, n)
		if c.Rank() == 0 {
			start := c.Wtime()
			for i := 0; i < iters; i++ {
				if err := c.Send(1, 0, data); err != nil {
					return err
				}
				if _, err := c.Recv(1, 0, buf); err != nil {
					return err
				}
			}
			rtt = (c.Wtime() - start) / time.Duration(iters)
			return nil
		}
		for i := 0; i < iters; i++ {
			if _, err := c.Recv(0, 0, buf); err != nil {
				return err
			}
			if err := c.Send(0, 0, data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rtt
}

// Figure 5: MPI over TCP adds a near-constant offset (kernel reads and
// matching) over raw TCP on both media, and the ATM/Ethernet ordering of
// raw TCP carries over.
func TestFigure5Shape(t *testing.T) {
	mpiEth := pingPong(t, Config{Transport: TCP, Network: atm.OverEthernet}, 1, 10)
	mpiATM := pingPong(t, Config{Transport: TCP, Network: atm.OverATM}, 1, 10)
	// Raw anchors from the substrate calibration.
	rawEth := 925 * time.Microsecond
	rawATM := 1065 * time.Microsecond
	dEth := mpiEth - rawEth
	dATM := mpiATM - rawATM
	if dEth < 150*time.Microsecond || dEth > 450*time.Microsecond {
		t.Fatalf("mpi/tcp/eth overhead = %v; want a few hundred us (paper: reads+matching)", dEth)
	}
	if dATM < 150*time.Microsecond || dATM > 550*time.Microsecond {
		t.Fatalf("mpi/tcp/atm overhead = %v", dATM)
	}
	if mpiATM < mpiEth {
		t.Fatalf("1-byte: mpi/tcp/atm %v < mpi/tcp/eth %v; ATM should be slower for tiny messages", mpiATM, mpiEth)
	}
	// At 8 KB the ATM bandwidth advantage must flip the order.
	bigEth := pingPong(t, Config{Transport: TCP, Network: atm.OverEthernet}, 8192, 5)
	bigATM := pingPong(t, Config{Transport: TCP, Network: atm.OverATM}, 8192, 5)
	if bigATM > bigEth {
		t.Fatalf("8KB: mpi/tcp/atm %v > mpi/tcp/eth %v", bigATM, bigEth)
	}
}

// Table 1: the per-message overhead components exist with the paper's
// magnitudes: two header reads (~65 us Ethernet, ~85 us ATM) and ~35 us
// of matching.
func TestTable1Breakdown(t *testing.T) {
	for _, net := range []atm.MediumKind{atm.OverEthernet, atm.OverATM} {
		net := net
		t.Run(net.String(), func(t *testing.T) {
			cfg := Config{Hosts: 2, Transport: TCP, Network: net}
			const iters = 10
			rep, err := Run(cfg, func(c *mpi.Comm) error {
				data := make([]byte, 1)
				if c.Rank() == 0 {
					for i := 0; i < iters; i++ {
						if err := c.Send(1, 0, data); err != nil {
							return err
						}
						if _, err := c.Recv(1, 0, data); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < iters; i++ {
					if _, err := c.Recv(0, 0, data); err != nil {
						return err
					}
					if err := c.Send(0, 0, data); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			acct := rep.RankAccts[1]
			perMsg := func(label string) float64 {
				if acct.Count[label] == 0 {
					return float64(acct.Time[label]) / float64(iters) / 1e3
				}
				return float64(acct.Time[label]) / float64(acct.Count[label]) / 1e3
			}
			readType := perMsg(acctReadType)
			readEnv := perMsg(acctReadEnv)
			match := float64(acct.Time["match"]) / float64(acct.Count["recv"]) / 1e3
			wantRead := 65.0
			if net == atm.OverATM {
				wantRead = 85.0
			}
			if readType < wantRead*0.8 || readType > wantRead*1.3 {
				t.Errorf("read-for-type = %.1f us/msg, want ~%.0f (Table 1)", readType, wantRead)
			}
			if readEnv < wantRead*0.8 || readEnv > wantRead*1.3 {
				t.Errorf("read-for-envelope = %.1f us/msg, want ~%.0f (Table 1)", readEnv, wantRead)
			}
			if match < 30 || match > 80 {
				t.Errorf("matching = %.1f us/recv, want ~35-70 (Table 1)", match)
			}
		})
	}
}

// Figure 6 shape: MPI-over-TCP bandwidth approaches raw TCP, and ATM
// exceeds Ethernet severalfold.
func TestFigure6Bandwidth(t *testing.T) {
	bw := func(net atm.MediumKind) float64 {
		cfg := Config{Hosts: 2, Transport: TCP, Network: net}
		const chunk = 64 * 1024
		const iters = 8
		var elapsed time.Duration
		_, err := Run(cfg, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				data := make([]byte, chunk)
				for i := 0; i < iters; i++ {
					if err := c.Send(1, 0, data); err != nil {
						return err
					}
				}
				_, err := c.Recv(1, 1, make([]byte, 1))
				return err
			}
			buf := make([]byte, chunk)
			for i := 0; i < iters; i++ {
				if _, err := c.Recv(0, 0, buf); err != nil {
					return err
				}
			}
			elapsed = c.Wtime()
			return c.Send(0, 1, []byte{1})
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(chunk*iters) / elapsed.Seconds() / 1e6
	}
	eth := bw(atm.OverEthernet)
	am := bw(atm.OverATM)
	if eth < 0.6 || eth > 1.2 {
		t.Fatalf("mpi/tcp/eth bandwidth = %.2f MB/s, want ~0.8-1.1", eth)
	}
	if am < 3 || am > 14 {
		t.Fatalf("mpi/tcp/atm bandwidth = %.2f MB/s", am)
	}
	if am < 3*eth {
		t.Fatalf("atm (%.2f) should be several times eth (%.2f)", am, eth)
	}
}

// The paper's finding: the reliable-UDP MPI performs like the TCP one.
func TestUDPComparableToTCP(t *testing.T) {
	tcp := pingPong(t, Config{Transport: TCP, Network: atm.OverATM}, 256, 10)
	udp := pingPong(t, Config{Transport: UDP, Network: atm.OverATM}, 256, 10)
	ratio := float64(udp) / float64(tcp)
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("udp/tcp RTT ratio = %.2f (udp %v, tcp %v); paper found them similar", ratio, udp, tcp)
	}
}

func TestSemanticsAllVariants(t *testing.T) {
	for _, tr := range []TransportKind{TCP, UDP} {
		for _, net := range []atm.MediumKind{atm.OverEthernet, atm.OverATM} {
			tr, net := tr, net
			t.Run(fmt.Sprintf("%v-%v", tr, net), func(t *testing.T) {
				const n = 4
				_, err := Run(Config{Hosts: n, Transport: tr, Network: net}, func(c *mpi.Comm) error {
					// Eager and rendezvous sizes with wildcards.
					for _, size := range []int{1, 500, 40_000} {
						if c.Rank() != 0 {
							data := make([]byte, size)
							for i := range data {
								data[i] = byte(i + c.Rank())
							}
							if err := c.Send(0, size%1000, data); err != nil {
								return err
							}
						} else {
							for k := 1; k < n; k++ {
								buf := make([]byte, size)
								st, err := c.Recv(mpi.AnySource, size%1000, buf)
								if err != nil {
									return err
								}
								for i := 0; i < size; i += 97 {
									if buf[i] != byte(i+st.Source) {
										return fmt.Errorf("size %d from %d corrupt at %d", size, st.Source, i)
									}
								}
							}
						}
						if err := c.Barrier(); err != nil {
							return err
						}
					}
					// Collective sanity.
					sum, err := c.AllreduceFloat64(mpi.SumFloat64, []float64{1})
					if err != nil {
						return err
					}
					if sum[0] != n {
						return fmt.Errorf("allreduce = %v", sum)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	for _, tr := range []TransportKind{TCP, UDP} {
		tr := tr
		t.Run(tr.String(), func(t *testing.T) {
			const size = 300_000
			_, err := Run(Config{Hosts: 2, Transport: tr, Network: atm.OverATM}, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					data := make([]byte, size)
					for i := range data {
						data[i] = byte(i * 13)
					}
					return c.Send(1, 0, data)
				}
				buf := make([]byte, size)
				st, err := c.Recv(0, 0, buf)
				if err != nil {
					return err
				}
				if st.Count != size {
					return fmt.Errorf("count = %d", st.Count)
				}
				for i := 0; i < size; i += 1009 {
					if buf[i] != byte(i*13) {
						return fmt.Errorf("corrupt at %d", i)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCreditFlowControlOneSided(t *testing.T) {
	// Many eager messages to a slow receiver with a small reservation:
	// credits must round-trip (explicit returns) without deadlock.
	_, err := Run(Config{Hosts: 2, Transport: TCP, Network: atm.OverATM, CreditBytes: 4096, Eager: 1000}, func(c *mpi.Comm) error {
		const msgs = 30
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, i, make([]byte, 900)); err != nil {
					return err
				}
			}
			return nil
		}
		c.Compute(20 * time.Millisecond)
		for i := 0; i < msgs; i++ {
			if _, err := c.Recv(0, i, make([]byte, 900)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreditBlocksSender(t *testing.T) {
	const delay = 50 * time.Millisecond
	var allSent time.Duration
	_, err := Run(Config{Hosts: 2, Transport: TCP, Network: atm.OverATM, CreditBytes: 2048, Eager: 1000}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if err := c.Send(1, i, make([]byte, 900)); err != nil {
					return err
				}
			}
			allSent = c.Wtime()
			return nil
		}
		c.Compute(delay)
		for i := 0; i < 5; i++ {
			if _, err := c.Recv(0, i, make([]byte, 900)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allSent < delay {
		t.Fatalf("5x900B against a 2KB reservation finished at %v, before the receiver drained at %v", allSent, delay)
	}
}

func TestUDPWithLossStillCorrect(t *testing.T) {
	const size = 20_000
	rep, err := Run(Config{Hosts: 2, Transport: UDP, Network: atm.OverATM, LossRate: 0.1}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 3)
			}
			for k := 0; k < 3; k++ {
				if err := c.Send(1, k, data); err != nil {
					return err
				}
			}
			return nil
		}
		for k := 0; k < 3; k++ {
			buf := make([]byte, size)
			if _, err := c.Recv(0, k, buf); err != nil {
				return err
			}
			for i := 0; i < size; i += 487 {
				if buf[i] != byte(i*3) {
					return fmt.Errorf("msg %d corrupt at %d", k, i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
}

func TestSsendBlocksOnCluster(t *testing.T) {
	const delay = 10 * time.Millisecond
	var done time.Duration
	_, err := Run(Config{Hosts: 2, Transport: TCP, Network: atm.OverATM}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Ssend(1, 0, []byte{1}); err != nil {
				return err
			}
			done = c.Wtime()
			return nil
		}
		c.Compute(delay)
		_, err := c.Recv(0, 0, make([]byte, 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if done < delay {
		t.Fatalf("Ssend completed at %v before receive posted at %v", done, delay)
	}
}

func TestEagerPayloadIntegrity(t *testing.T) {
	for _, size := range []int{0, 1, 100, 5000, 15_000} {
		size := size
		_, err := Run(Config{Hosts: 2, Transport: TCP, Network: atm.OverATM}, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				data := make([]byte, size)
				for i := range data {
					data[i] = byte(i ^ 0x5A)
				}
				return c.Send(1, 0, data)
			}
			buf := make([]byte, size)
			if _, err := c.Recv(0, 0, buf); err != nil {
				return err
			}
			want := make([]byte, size)
			for i := range want {
				want[i] = byte(i ^ 0x5A)
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("size %d corrupted", size)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestLinearVsBinomialBcast(t *testing.T) {
	elapsed := func(alg mpi.BcastAlg) time.Duration {
		rep, err := Run(Config{Hosts: 8, Transport: TCP, Network: atm.OverATM, Bcast: alg}, func(c *mpi.Comm) error {
			buf := make([]byte, 4096)
			for i := 0; i < 5; i++ {
				if err := c.Bcast(0, buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxRankElapsed
	}
	lin, bin := elapsed(mpi.BcastLinear), elapsed(mpi.BcastBinomial)
	if bin >= lin {
		t.Fatalf("binomial bcast %v not faster than linear %v at 8 ranks", bin, lin)
	}
}

func TestDeterministicCluster(t *testing.T) {
	run := func() time.Duration {
		rep, err := Run(Config{Hosts: 4, Transport: TCP, Network: atm.OverEthernet}, func(c *mpi.Comm) error {
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxRankElapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// A 1 KiB eager round trip on cluster/tcp has an allocation budget, so the
// packet path's pooling cannot quietly regress. Each round trip is two
// messages; their frames and window updates cross the sockets, the fault
// layer and the ATM fabric without allocating, and parsed packets land in
// the transport's value-typed inbox. The budget is what remains: per
// message, the engine's send and receive requests.
func TestTCPPingPongAllocBudget(t *testing.T) {
	const warm, runs, budget = 64, 200, 4
	var allocs float64
	_, err := Run(Config{Hosts: 2, Transport: TCP, Network: atm.OverATM}, func(c *mpi.Comm) error {
		data := make([]byte, 1024)
		buf := make([]byte, 1024)
		var err error
		if c.Rank() == 0 {
			rtt := func() {
				if err == nil {
					err = c.Send(1, 0, data)
				}
				if err == nil {
					_, err = c.Recv(1, 0, buf)
				}
			}
			for i := 0; i < warm; i++ {
				rtt()
			}
			allocs = testing.AllocsPerRun(runs, rtt)
			return err
		}
		for i := 0; i < warm+runs+1 && err == nil; i++ {
			if _, err = c.Recv(0, 0, buf); err == nil {
				err = c.Send(0, 0, data)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > budget {
		t.Fatalf("1 KiB eager round trip allocates %.1f objects, budget %d", allocs, budget)
	}
}
