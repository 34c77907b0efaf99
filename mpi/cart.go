package mpi

import "repro/internal/core"

// Cart is a Cartesian virtual topology over a communicator
// (MPI_Cart_create family). The MPI standard lists virtual topology
// management among its primitives; the ring used by the particle
// application is the 1-D periodic case.
type Cart struct {
	*Comm
	Dims     []int
	Periodic []bool
}

// CartCreate builds a row-major Cartesian topology over the communicator.
// The product of dims must not exceed the communicator size; surplus ranks
// receive nil (as with MPI_Cart_create without reorder).
func (c *Comm) CartCreate(dims []int, periodic []bool) (*Cart, error) {
	if len(dims) != len(periodic) {
		return nil, core.Errorf(core.ErrInternal, "dims/periodic length mismatch")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, core.Errorf(core.ErrInternal, "non-positive cartesian dimension %d", d)
		}
		n *= d
	}
	if n > c.Size() {
		return nil, core.Errorf(core.ErrInternal, "cartesian grid of %d exceeds communicator size %d", n, c.Size())
	}
	if c.rank >= n {
		return nil, nil
	}
	d := make([]int, len(dims))
	copy(d, dims)
	pp := make([]bool, len(periodic))
	copy(pp, periodic)
	return &Cart{Comm: c, Dims: d, Periodic: pp}, nil
}

// Coords reports the Cartesian coordinates of a rank (MPI_Cart_coords).
func (t *Cart) Coords(rank int) []int {
	coords := make([]int, len(t.Dims))
	for i := len(t.Dims) - 1; i >= 0; i-- {
		coords[i] = rank % t.Dims[i]
		rank /= t.Dims[i]
	}
	return coords
}

// RankOf reports the rank at the given coordinates, honoring periodicity;
// it returns -1 for out-of-range coordinates on non-periodic dimensions
// (like MPI_PROC_NULL).
func (t *Cart) RankOf(coords []int) int {
	rank := 0
	for i, d := range t.Dims {
		c := coords[i]
		if c < 0 || c >= d {
			if !t.Periodic[i] {
				return -1
			}
			c = ((c % d) + d) % d
		}
		rank = rank*d + c
	}
	return rank
}

// Shift reports the (source, dest) ranks displaced along dim
// (MPI_Cart_shift); -1 plays the role of MPI_PROC_NULL. It works on the
// rank directly — the coordinate along dim scaled by its row-major stride —
// so halo exchanges that shift every step allocate nothing.
func (t *Cart) Shift(dim, disp int) (src, dst int) {
	stride := 1
	for _, d := range t.Dims[dim+1:] {
		stride *= d
	}
	c := t.rank / stride % t.Dims[dim]
	return t.displaced(dim, c, -disp, stride), t.displaced(dim, c, disp, stride)
}

// displaced reports the rank whose coordinate along dim is c+disp, with the
// other coordinates this rank's; -1 off the edge of a non-periodic
// dimension.
func (t *Cart) displaced(dim, c, disp, stride int) int {
	d := t.Dims[dim]
	to := c + disp
	if to < 0 || to >= d {
		if !t.Periodic[dim] {
			return -1
		}
		to = ((to % d) + d) % d
	}
	return t.rank + (to-c)*stride
}

// Dims2 suggests a balanced 2-factor decomposition of n (MPI_Dims_create
// for two dimensions).
func Dims2(n int) (int, int) {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return best, n / best
}
