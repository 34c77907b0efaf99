package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// memWorld builds an n-rank world over the reference in-memory transport.
func memWorld(n int) *World {
	s := sim.NewScheduler(1)
	s.MaxEvents = 5_000_000
	fab := core.NewMemFabric(s, time.Microsecond, 180)
	eps := make([]core.Endpoint, n)
	for i := range eps {
		e := core.NewEngine(s, i, n, core.EngineCosts{}, nil)
		fab.Attach(e)
		eps[i] = e
	}
	return NewWorld(s, eps)
}

func launch(t *testing.T, n int, body func(c *Comm) error) *Report {
	t.Helper()
	rep, err := Launch(memWorld(n), body)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	return rep
}

func TestSendRecvBasic(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("ping"))
		}
		buf := make([]byte, 4)
		st, err := c.Recv(0, 5, buf)
		if err != nil {
			return err
		}
		if string(buf) != "ping" || st.Source != 0 || st.Count != 4 {
			t.Errorf("got %q, %+v", buf, st)
		}
		return nil
	})
}

func TestRingSendrecv(t *testing.T) {
	const n = 6
	launch(t, n, func(c *Comm) error {
		right := (c.Rank() + 1) % n
		left := (c.Rank() - 1 + n) % n
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		st, err := c.Sendrecv(right, 1, out, left, 1, in)
		if err != nil {
			return err
		}
		if int(in[0]) != left || st.Source != left {
			t.Errorf("rank %d got %d from %d", c.Rank(), in[0], st.Source)
		}
		return nil
	})
}

func TestWtimeAdvances(t *testing.T) {
	launch(t, 1, func(c *Comm) error {
		t0 := c.Wtime()
		c.Compute(3 * time.Millisecond)
		if d := c.Wtime() - t0; d != 3*time.Millisecond {
			t.Errorf("Wtime advanced %v, want 3ms", d)
		}
		return nil
	})
}

func TestBcastAlgorithms(t *testing.T) {
	for _, alg := range []BcastAlg{BcastLinear, BcastBinomial, BcastAuto} {
		alg := alg
		t.Run(fmt.Sprint(alg), func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 7, 8} {
				w := memWorld(n)
				w.Bcast = alg
				rep, err := Launch(w, func(c *Comm) error {
					buf := make([]byte, 100)
					if c.Rank() == 2%n {
						for i := range buf {
							buf[i] = byte(i * 3)
						}
					}
					if err := c.Bcast(2%n, buf); err != nil {
						return err
					}
					for i := range buf {
						if buf[i] != byte(i*3) {
							return fmt.Errorf("rank %d: bcast corrupted at %d", c.Rank(), i)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d: %v (rep %+v)", n, err, rep.Errs)
				}
			}
		})
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 5
	var after [n]time.Duration
	launch(t, n, func(c *Comm) error {
		// Rank r arrives at the barrier at (r+1)*10ms.
		c.Compute(time.Duration(c.Rank()+1) * 10 * time.Millisecond)
		if err := c.Barrier(); err != nil {
			return err
		}
		after[c.Rank()] = c.Wtime()
		return nil
	})
	for r := 0; r < n; r++ {
		if after[r] < 50*time.Millisecond {
			t.Fatalf("rank %d left the barrier at %v, before the slowest rank arrived", r, after[r])
		}
	}
}

func TestGatherScatter(t *testing.T) {
	const n = 4
	launch(t, n, func(c *Comm) error {
		me := []byte{byte(10 + c.Rank())}
		all := make([]byte, n)
		if err := c.Gather(0, me, all); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if all[i] != byte(10+i) {
					t.Errorf("gather[%d] = %d", i, all[i])
				}
			}
		}
		// Scatter back doubled values.
		var src []byte
		if c.Rank() == 0 {
			src = make([]byte, n)
			for i := range src {
				src[i] = byte(2 * (10 + i))
			}
		}
		out := make([]byte, 1)
		if err := c.Scatter(0, src, out); err != nil {
			return err
		}
		if out[0] != byte(2*(10+c.Rank())) {
			t.Errorf("rank %d scatter got %d", c.Rank(), out[0])
		}
		return nil
	})
}

func TestGathervScatterv(t *testing.T) {
	const n = 3
	counts := []int{1, 3, 2}
	launch(t, n, func(c *Comm) error {
		me := bytes.Repeat([]byte{byte('a' + c.Rank())}, counts[c.Rank()])
		all := make([]byte, 6)
		if err := c.Gatherv(0, me, all, counts); err != nil {
			return err
		}
		if c.Rank() == 0 && string(all) != "abbbcc" {
			t.Errorf("gatherv = %q", all)
		}
		recv := make([]byte, counts[c.Rank()])
		var src []byte
		if c.Rank() == 0 {
			src = []byte("xyyyzz")
		}
		if err := c.Scatterv(0, src, counts, recv); err != nil {
			return err
		}
		want := string(bytes.Repeat([]byte{byte('x' + c.Rank())}, counts[c.Rank()]))
		if string(recv) != want {
			t.Errorf("rank %d scatterv got %q want %q", c.Rank(), recv, want)
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	const n = 5
	launch(t, n, func(c *Comm) error {
		all := make([]byte, n)
		if err := c.Allgather([]byte{byte(c.Rank())}, all); err != nil {
			return err
		}
		for i := range all {
			if all[i] != byte(i) {
				t.Errorf("rank %d allgather[%d]=%d", c.Rank(), i, all[i])
			}
		}
		return nil
	})
}

func TestReduceAllreduceScan(t *testing.T) {
	const n = 6
	launch(t, n, func(c *Comm) error {
		x := []float64{float64(c.Rank() + 1), 2}
		sum, err := c.ReduceFloat64(0, SumFloat64, x)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if sum[0] != 21 || sum[1] != 12 {
				t.Errorf("reduce sum = %v", sum)
			}
		} else if sum != nil {
			t.Errorf("non-root got reduce result")
		}
		all, err := c.AllreduceFloat64(MaxFloat64, []float64{float64(c.Rank())})
		if err != nil {
			return err
		}
		if all[0] != n-1 {
			t.Errorf("allreduce max = %v", all)
		}
		// Scan over int64.
		out := make([]byte, 8)
		if err := c.Scan(SumInt64, Int64Bytes([]int64{1}), out); err != nil {
			return err
		}
		if got := BytesInt64(out)[0]; got != int64(c.Rank()+1) {
			t.Errorf("rank %d scan = %d", c.Rank(), got)
		}
		return nil
	})
}

func TestAlltoall(t *testing.T) {
	const n = 4
	launch(t, n, func(c *Comm) error {
		send := make([]byte, n)
		for i := range send {
			send[i] = byte(c.Rank()*10 + i)
		}
		recv := make([]byte, n)
		if err := c.Alltoall(send, recv); err != nil {
			return err
		}
		for i := range recv {
			if recv[i] != byte(i*10+c.Rank()) {
				t.Errorf("rank %d recv[%d] = %d", c.Rank(), i, recv[i])
			}
		}
		return nil
	})
}

func TestCommDupIsolation(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Same tag on both communicators; receiver distinguishes by comm.
			if err := c.Send(1, 7, []byte{1}); err != nil {
				return err
			}
			return dup.Send(1, 7, []byte{2})
		}
		b := make([]byte, 1)
		if _, err := dup.Recv(0, 7, b); err != nil {
			return err
		}
		if b[0] != 2 {
			t.Errorf("dup comm received %d, want 2", b[0])
		}
		if _, err := c.Recv(0, 7, b); err != nil {
			return err
		}
		if b[0] != 1 {
			t.Errorf("parent comm received %d, want 1", b[0])
		}
		return nil
	})
}

func TestCommSplit(t *testing.T) {
	const n = 6
	launch(t, n, func(c *Comm) error {
		color := c.Rank() % 2
		sub, err := c.Split(color, -c.Rank()) // reverse order by key
		if err != nil {
			return err
		}
		if sub == nil {
			t.Errorf("rank %d got nil subcomm", c.Rank())
			return nil
		}
		if sub.Size() != 3 {
			t.Errorf("subcomm size %d", sub.Size())
		}
		// Keys are -rank, so higher parent rank sorts first.
		wantRank := map[int]int{4: 0, 2: 1, 0: 2, 5: 0, 3: 1, 1: 2}[c.Rank()]
		if sub.Rank() != wantRank {
			t.Errorf("rank %d -> subrank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// A bcast within the subcomm touches only members.
		buf := []byte{byte(sub.Rank())}
		if sub.Rank() == 0 {
			buf[0] = byte(100 + color)
		}
		if err := sub.Bcast(0, buf); err != nil {
			return err
		}
		if buf[0] != byte(100+color) {
			t.Errorf("rank %d subcomm bcast got %d", c.Rank(), buf[0])
		}
		return nil
	})
}

func TestCommSplitUndefined(t *testing.T) {
	launch(t, 4, func(c *Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color produced a communicator")
			}
			return nil
		}
		if sub == nil || sub.Size() != 3 {
			t.Errorf("rank %d: bad subcomm", c.Rank())
		}
		return nil
	})
}

func TestTranslate(t *testing.T) {
	launch(t, 4, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			return err
		}
		world := c
		if got := sub.Translate(sub.Rank(), world); got != c.Rank() {
			t.Errorf("translate sub->world = %d, want %d", got, c.Rank())
		}
		return nil
	})
}

func TestPersistentRequests(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		const iters = 5
		if c.Rank() == 0 {
			buf := []byte{0}
			ps := c.SendInit(1, 3, buf)
			for i := 0; i < iters; i++ {
				buf[0] = byte(i)
				r, err := ps.Start()
				if err != nil {
					return err
				}
				if _, err := r.Wait(); err != nil {
					return err
				}
			}
			return nil
		}
		buf := []byte{0}
		pr := c.RecvInit(0, 3, buf)
		for i := 0; i < iters; i++ {
			r, err := pr.Start()
			if err != nil {
				return err
			}
			if _, err := r.Wait(); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				t.Errorf("iter %d got %d", i, buf[0])
			}
		}
		return nil
	})
}

func TestWaitAllWaitAny(t *testing.T) {
	launch(t, 3, func(c *Comm) error {
		if c.Rank() == 0 {
			var reqs []*Request
			bufs := make([][]byte, 2)
			for i := 1; i <= 2; i++ {
				bufs[i-1] = make([]byte, 1)
				r, err := c.Irecv(i, AnyTag, bufs[i-1])
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			idx, st, err := WaitAny(reqs...)
			if err != nil {
				return err
			}
			if idx < 0 || st.Source < 1 {
				t.Errorf("WaitAny = %d, %+v", idx, st)
			}
			if _, err := WaitAll(reqs...); err != nil {
				return err
			}
			return nil
		}
		c.Compute(time.Duration(c.Rank()) * time.Millisecond)
		return c.Send(0, c.Rank(), []byte{byte(c.Rank())})
	})
}

func TestTestAllProgresses(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(time.Millisecond)
			return c.Send(1, 0, []byte{42})
		}
		r, err := c.Irecv(0, 0, make([]byte, 1))
		if err != nil {
			return err
		}
		for {
			ok, err := TestAll(r)
			if err != nil {
				return err
			}
			if ok {
				return nil
			}
			c.Compute(100 * time.Microsecond)
		}
	})
}

func TestCartRingShift(t *testing.T) {
	const n = 6
	launch(t, n, func(c *Comm) error {
		cart, err := c.CartCreate([]int{n}, []bool{true})
		if err != nil {
			return err
		}
		src, dst := cart.Shift(0, 1)
		if dst != (c.Rank()+1)%n || src != (c.Rank()-1+n)%n {
			t.Errorf("rank %d shift = (%d, %d)", c.Rank(), src, dst)
		}
		return nil
	})
}

func TestCart2D(t *testing.T) {
	launch(t, 6, func(c *Comm) error {
		cart, err := c.CartCreate([]int{2, 3}, []bool{false, true})
		if err != nil {
			return err
		}
		coords := cart.Coords(c.Rank())
		if got := cart.RankOf(coords); got != c.Rank() {
			t.Errorf("RankOf(Coords(%d)) = %d", c.Rank(), got)
		}
		// Non-periodic out-of-range is PROC_NULL.
		if cart.RankOf([]int{-1, 0}) != -1 {
			t.Error("non-periodic dimension wrapped")
		}
		// Periodic wraps.
		if cart.RankOf([]int{1, 3}) != cart.RankOf([]int{1, 0}) {
			t.Error("periodic dimension did not wrap")
		}
		return nil
	})
}

// Shift computes the displaced ranks arithmetically; it must agree with
// the coordinate round trip (Coords, displace, RankOf) on periodic,
// non-periodic and mixed grids, for displacements past the grid edge,
// and without allocating.
func TestCartShiftMatchesCoords(t *testing.T) {
	viaCoords := func(c *Cart, dim, disp int) (int, int) {
		up, down := c.Coords(c.rank), c.Coords(c.rank)
		up[dim] += disp
		down[dim] -= disp
		return c.RankOf(down), c.RankOf(up)
	}
	grids := []struct {
		dims     []int
		periodic []bool
	}{
		{[]int{7}, []bool{true}},
		{[]int{7}, []bool{false}},
		{[]int{4, 6}, []bool{false, true}},
		{[]int{4, 6}, []bool{true, false}},
		{[]int{3, 1, 5}, []bool{true, true, true}},
		{[]int{3, 2, 5}, []bool{false, false, false}},
	}
	for _, g := range grids {
		n := 1
		for _, d := range g.dims {
			n *= d
		}
		for rank := 0; rank < n; rank++ {
			cart := &Cart{Comm: &Comm{rank: rank}, Dims: g.dims, Periodic: g.periodic}
			for dim := range g.dims {
				for disp := -9; disp <= 9; disp++ {
					src, dst := cart.Shift(dim, disp)
					wsrc, wdst := viaCoords(cart, dim, disp)
					if src != wsrc || dst != wdst {
						t.Fatalf("dims %v periodic %v rank %d: Shift(%d, %d) = (%d, %d), want (%d, %d)",
							g.dims, g.periodic, rank, dim, disp, src, dst, wsrc, wdst)
					}
				}
			}
		}
	}
	cart := &Cart{Comm: &Comm{rank: 5}, Dims: []int{4, 6}, Periodic: []bool{true, false}}
	if a := testing.AllocsPerRun(100, func() { cart.Shift(1, 1) }); a != 0 {
		t.Fatalf("Shift allocated %v times per call", a)
	}
}

func TestDims2(t *testing.T) {
	for _, tc := range []struct{ n, a, b int }{{1, 1, 1}, {6, 2, 3}, {12, 3, 4}, {7, 1, 7}, {16, 4, 4}} {
		a, b := Dims2(tc.n)
		if a != tc.a || b != tc.b {
			t.Errorf("Dims2(%d) = (%d,%d), want (%d,%d)", tc.n, a, b, tc.a, tc.b)
		}
	}
}

func TestTypedSendRecvVector(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		// A column of a 4x4 float64 matrix: 4 blocks of 1 element, stride 4.
		col := Vector{Count: 4, BlockLen: 1, Stride: 4, Of: Float64}
		if c.Rank() == 0 {
			m := make([]float64, 16)
			for i := range m {
				m[i] = float64(i)
			}
			return c.SendTyped(1, 0, col, 1, Float64Bytes(m))
		}
		out := make([]byte, 16*8)
		if _, err := c.RecvTyped(0, 0, col, 1, out); err != nil {
			return err
		}
		dec := BytesFloat64(out)
		// Column 0 of the matrix: elements 0, 4, 8, 12 land at strided slots.
		for i := 0; i < 4; i++ {
			if dec[i*4] != float64(i*4) {
				t.Errorf("col[%d] = %v", i, dec[i*4])
			}
		}
		return nil
	})
}

// Property: Pack followed by Unpack is the identity on the packed view for
// every derived datatype shape.
func TestDatatypePackUnpackProperty(t *testing.T) {
	prop := func(raw []byte, count, blockLen, stride uint8) bool {
		cnt := int(count%4) + 1
		bl := int(blockLen%3) + 1
		st := bl + int(stride%3)
		dt := Vector{Count: cnt, BlockLen: bl, Stride: st, Of: Byte}
		need := dt.Extent()
		src := make([]byte, need)
		copy(src, raw)
		packed := make([]byte, dt.Size())
		dt.Pack(packed, src)
		dst := make([]byte, need)
		dt.Unpack(dst, packed)
		packed2 := make([]byte, dt.Size())
		dt.Pack(packed2, dst)
		return bytes.Equal(packed, packed2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedDatatype(t *testing.T) {
	dt := Indexed{BlockLens: []int{2, 1, 3}, Displs: []int{0, 4, 6}, Of: Byte}
	if dt.Size() != 6 || dt.Extent() != 9 {
		t.Fatalf("size=%d extent=%d", dt.Size(), dt.Extent())
	}
	src := []byte{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i'}
	packed := make([]byte, 6)
	dt.Pack(packed, src)
	if string(packed) != "abeghi" {
		t.Fatalf("packed = %q", packed)
	}
	dst := make([]byte, 9)
	dt.Unpack(dst, packed)
	if dst[0] != 'a' || dst[4] != 'e' || dst[8] != 'i' || dst[2] != 0 {
		t.Fatalf("unpacked = %q", dst)
	}
}

func TestStructDatatype(t *testing.T) {
	// struct { x float64; pad; n int32 } laid out with displacements.
	dt := StructType{Fields: []StructField{
		{Displ: 0, Count: 1, Of: Float64},
		{Displ: 12, Count: 1, Of: Int32},
	}}
	if dt.Size() != 12 || dt.Extent() != 16 {
		t.Fatalf("size=%d extent=%d", dt.Size(), dt.Extent())
	}
	src := make([]byte, 16)
	copy(src, Float64Bytes([]float64{3.5}))
	src[12] = 42
	packed := make([]byte, 12)
	dt.Pack(packed, src)
	dst := make([]byte, 16)
	dt.Unpack(dst, packed)
	if !bytes.Equal(dst[:8], src[:8]) || dst[12] != 42 {
		t.Fatal("struct roundtrip failed")
	}
}

func TestContigDatatype(t *testing.T) {
	dt := Contig{Count: 3, Of: Int32}
	if dt.Size() != 12 || dt.Extent() != 12 {
		t.Fatalf("size=%d extent=%d", dt.Size(), dt.Extent())
	}
}

func TestPackUnpackComm(t *testing.T) {
	launch(t, 1, func(c *Comm) error {
		dt := Vector{Count: 2, BlockLen: 1, Stride: 2, Of: Byte}
		src := []byte{1, 2, 3}
		packed := c.Pack(dt, 1, src)
		if len(packed) != 2 || packed[0] != 1 || packed[1] != 3 {
			t.Errorf("packed = %v", packed)
		}
		dst := make([]byte, 3)
		c.Unpack(dt, 1, packed, dst)
		if dst[0] != 1 || dst[2] != 3 {
			t.Errorf("unpacked = %v", dst)
		}
		return nil
	})
}

func TestReportAccounts(t *testing.T) {
	rep := launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 50))
		}
		_, err := c.Recv(0, 0, make([]byte, 50))
		return err
	})
	if rep.Acct.Count["send"] != 1 || rep.Acct.Count["recv"] != 1 {
		t.Fatalf("counters: %+v", rep.Acct.Count)
	}
	if rep.MaxRankElapsed == 0 {
		t.Fatal("no elapsed time recorded")
	}
}

func TestDeadlockSurfacesAsError(t *testing.T) {
	_, err := Launch(memWorld(2), func(c *Comm) error {
		// Both ranks receive; nobody sends.
		_, err := c.Recv(AnySource, AnyTag, make([]byte, 1))
		return err
	})
	if err == nil {
		t.Fatal("deadlocked program reported success")
	}
}

func TestLaunchDeterministic(t *testing.T) {
	run := func() time.Duration {
		rep, err := Launch(memWorld(4), func(c *Comm) error {
			buf := make([]byte, 64)
			if err := c.Bcast(0, buf); err != nil {
				return err
			}
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

// --- additional edge-case coverage ---

func TestRendezvousTruncation(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 4000)) // > mem fabric eager 180
		}
		buf := make([]byte, 100)
		st, err := c.Recv(0, 0, buf)
		if err == nil {
			t.Error("rendezvous truncation not reported")
		}
		if st.Count != 100 {
			t.Errorf("count = %d", st.Count)
		}
		return nil
	})
}

func TestRecvBufferLargerThanMessage(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []byte{1, 2, 3})
		}
		buf := make([]byte, 100)
		st, err := c.Recv(0, 0, buf)
		if err != nil {
			return err
		}
		if st.Count != 3 {
			t.Errorf("count = %d, want 3", st.Count)
		}
		return nil
	})
}

func TestCancelThenMatchingSendGoesToNextRecv(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(time.Millisecond)
			return c.Send(1, 0, []byte{9})
		}
		first, err := c.Irecv(0, 0, make([]byte, 1))
		if err != nil {
			return err
		}
		if err := first.Cancel(); err != nil {
			return err
		}
		if !first.Cancelled() {
			t.Error("request not marked cancelled")
		}
		buf := make([]byte, 1)
		if _, err := c.Recv(0, 0, buf); err != nil {
			return err
		}
		if buf[0] != 9 {
			t.Errorf("second recv got %d", buf[0])
		}
		return nil
	})
}

func TestBufferAttachDetach(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() != 0 {
			_, err := c.Recv(0, 0, make([]byte, 8))
			return err
		}
		c.BufferAttach(512)
		if err := c.Bsend(1, 0, make([]byte, 8)); err != nil {
			return err
		}
		if n := c.BufferDetach(); n != 512 {
			t.Errorf("detach = %d", n)
		}
		// After detach, buffered sends fail again.
		if err := c.Bsend(1, 1, make([]byte, 8)); err == nil {
			t.Error("Bsend succeeded with no attached buffer")
		}
		return nil
	})
}

func TestSendrecvSelf(t *testing.T) {
	launch(t, 1, func(c *Comm) error {
		out := []byte{42}
		in := make([]byte, 1)
		st, err := c.Sendrecv(0, 0, out, 0, 0, in)
		if err != nil {
			return err
		}
		if in[0] != 42 || st.Source != 0 {
			t.Errorf("self sendrecv: %d, %+v", in[0], st)
		}
		return nil
	})
}

func TestReportProtocolErrors(t *testing.T) {
	rep, err := Launch(memWorld(2), func(c *Comm) error {
		if c.Rank() == 0 {
			// Ready-mode send with no posted receive: erroneous program,
			// recorded as a protocol error at the receiver.
			if err := c.Rsend(1, 0, []byte{1}); err != nil {
				return err
			}
			return nil
		}
		c.Compute(time.Millisecond)
		_, err := c.Recv(0, 0, make([]byte, 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Protocol) == 0 {
		t.Fatal("ready-mode violation not surfaced in Report.Protocol")
	}
}

func TestCollectivesOnSizeOneComm(t *testing.T) {
	launch(t, 1, func(c *Comm) error {
		buf := []byte{7}
		if err := c.Bcast(0, buf); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		all := make([]byte, 1)
		if err := c.Allgather([]byte{3}, all); err != nil {
			return err
		}
		if all[0] != 3 {
			t.Errorf("allgather = %v", all)
		}
		sum, err := c.AllreduceFloat64(SumFloat64, []float64{5})
		if err != nil {
			return err
		}
		if sum[0] != 5 {
			t.Errorf("allreduce = %v", sum)
		}
		recv := make([]byte, 1)
		if err := c.Alltoall([]byte{8}, recv); err != nil {
			return err
		}
		if recv[0] != 8 {
			t.Errorf("alltoall = %v", recv)
		}
		return nil
	})
}
