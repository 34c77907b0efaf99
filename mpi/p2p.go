package mpi

import (
	"repro/internal/core"
)

// Request is an in-flight nonblocking operation bound to its communicator.
type Request struct {
	c   *Comm
	req *core.Request
}

// Wait blocks until the request completes.
func (r *Request) Wait() (Status, error) { return r.c.wait(r.req) }

// Test reports whether the request has completed, making progress.
func (r *Request) Test() (Status, bool, error) {
	st, ok, err := r.c.ep.Test(r.c.p, r.req)
	if !ok {
		return st, false, err
	}
	return r.c.fixStatus(st), true, err
}

// Cancel cancels an unmatched posted receive.
func (r *Request) Cancel() error { return r.c.ep.Cancel(r.c.p, r.req) }

// Cancelled reports whether the request was cancelled.
func (r *Request) Cancelled() bool { return r.req.Cancelled() }

// Done reports completion without making progress.
func (r *Request) Done() bool { return r.req.Done() }

// ---------------------------------------------------------------- sends --

// startSend starts a send on the endpoint. The blocking calls wait on the
// engine request directly, so they allocate no Request wrapper.
func (c *Comm) startSend(dst, tag int, mode core.Mode, data []byte) (*core.Request, error) {
	wr, err := c.worldRank(dst)
	if err != nil {
		return nil, err
	}
	return c.ep.Isend(c.p, wr, tag, c.ctx, mode, data)
}

func (c *Comm) isend(dst, tag int, mode core.Mode, data []byte) (*Request, error) {
	req, err := c.startSend(dst, tag, mode, data)
	if err != nil {
		return nil, err
	}
	return &Request{c: c, req: req}, nil
}

func (c *Comm) send(dst, tag int, mode core.Mode, data []byte) error {
	req, err := c.startSend(dst, tag, mode, data)
	if err != nil {
		return err
	}
	_, err = c.ep.Wait(c.p, req)
	return err
}

// Send is the blocking standard-mode send (MPI_Send).
func (c *Comm) Send(dst, tag int, data []byte) error {
	return c.send(dst, tag, core.ModeStandard, data)
}

// Ssend is the blocking synchronous-mode send: it completes only once the
// matching receive is posted (MPI_Ssend).
func (c *Comm) Ssend(dst, tag int, data []byte) error {
	return c.send(dst, tag, core.ModeSync, data)
}

// Rsend is the blocking ready-mode send: the program asserts the matching
// receive is already posted (MPI_Rsend).
func (c *Comm) Rsend(dst, tag int, data []byte) error {
	return c.send(dst, tag, core.ModeReady, data)
}

// Bsend is the blocking buffered-mode send, drawing on the buffer provided
// with BufferAttach (MPI_Bsend).
func (c *Comm) Bsend(dst, tag int, data []byte) error {
	return c.send(dst, tag, core.ModeBuffered, data)
}

// Isend, Issend, Irsend and Ibsend are the nonblocking variants.
func (c *Comm) Isend(dst, tag int, data []byte) (*Request, error) {
	return c.isend(dst, tag, core.ModeStandard, data)
}

// Issend starts a nonblocking synchronous-mode send.
func (c *Comm) Issend(dst, tag int, data []byte) (*Request, error) {
	return c.isend(dst, tag, core.ModeSync, data)
}

// Irsend starts a nonblocking ready-mode send.
func (c *Comm) Irsend(dst, tag int, data []byte) (*Request, error) {
	return c.isend(dst, tag, core.ModeReady, data)
}

// Ibsend starts a nonblocking buffered-mode send.
func (c *Comm) Ibsend(dst, tag int, data []byte) (*Request, error) {
	return c.isend(dst, tag, core.ModeBuffered, data)
}

// -------------------------------------------------------------- receives --

// startRecv posts a receive on the endpoint.
func (c *Comm) startRecv(src, tag int, buf []byte) (*core.Request, error) {
	wr, err := c.worldRank(src)
	if err != nil {
		return nil, err
	}
	return c.ep.Irecv(c.p, wr, tag, c.ctx, buf)
}

// wait blocks until req completes and reports its communicator status.
func (c *Comm) wait(req *core.Request) (Status, error) {
	st, err := c.ep.Wait(c.p, req)
	return c.fixStatus(st), err
}

// Irecv posts a nonblocking receive (MPI_Irecv). src may be AnySource and
// tag may be AnyTag.
func (c *Comm) Irecv(src, tag int, buf []byte) (*Request, error) {
	req, err := c.startRecv(src, tag, buf)
	if err != nil {
		return nil, err
	}
	return &Request{c: c, req: req}, nil
}

// Recv is the blocking receive (MPI_Recv).
func (c *Comm) Recv(src, tag int, buf []byte) (Status, error) {
	req, err := c.startRecv(src, tag, buf)
	if err != nil {
		return Status{}, err
	}
	return c.wait(req)
}

// Probe blocks until a matching message is available and reports its
// status without receiving it (MPI_Probe).
func (c *Comm) Probe(src, tag int) (Status, error) {
	wr, err := c.worldRank(src)
	if err != nil {
		return Status{}, err
	}
	st, err := c.ep.Probe(c.p, wr, tag, c.ctx)
	return c.fixStatus(st), err
}

// Iprobe reports whether a matching message is available (MPI_Iprobe).
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) {
	wr, err := c.worldRank(src)
	if err != nil {
		return Status{}, false, err
	}
	st, ok, err := c.ep.Iprobe(c.p, wr, tag, c.ctx)
	return c.fixStatus(st), ok, err
}

// Sendrecv concurrently sends to dst and receives from src, avoiding the
// cyclic-blocking pitfall (MPI_Sendrecv).
func (c *Comm) Sendrecv(dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte) (Status, error) {
	rr, err := c.startRecv(src, recvTag, recvBuf)
	if err != nil {
		return Status{}, err
	}
	sr, err := c.startSend(dst, sendTag, core.ModeStandard, sendData)
	if err != nil {
		return Status{}, err
	}
	if _, err := c.ep.Wait(c.p, sr); err != nil {
		return Status{}, err
	}
	return c.wait(rr)
}

// --------------------------------------------------- multiple completion --

// WaitAll completes every request (MPI_Waitall).
func WaitAll(reqs ...*Request) ([]Status, error) {
	sts := make([]Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		if r == nil {
			continue
		}
		st, err := r.Wait()
		sts[i] = st
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return sts, firstErr
}

// WaitAny blocks until some request completes and returns its index
// (MPI_Waitany).
func WaitAny(reqs ...*Request) (int, Status, error) {
	if len(reqs) == 0 {
		return -1, Status{}, core.Errorf(core.ErrInternal, "WaitAny with no requests")
	}
	for {
		for i, r := range reqs {
			if r == nil || r.req.Done() {
				continue
			}
			st, ok, err := r.Test()
			if ok {
				return i, st, err
			}
		}
		// Nothing ready: block on the first incomplete request's engine by
		// yielding virtual time; Test above already polled for progress.
		allDone := true
		for i, r := range reqs {
			if r != nil && !r.req.Done() {
				allDone = false
				_ = i
				break
			}
		}
		if allDone {
			return -1, Status{}, core.Errorf(core.ErrInternal, "WaitAny: all requests already completed")
		}
		// Park briefly; arrival wakeups happen inside Test's Progress.
		reqs[0].c.p.Advance(1000) // 1us poll interval
	}
}

// TestAll reports whether every request has completed (MPI_Testall).
func TestAll(reqs ...*Request) (bool, error) {
	all := true
	var firstErr error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		_, ok, err := r.Test()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if !ok {
			all = false
		}
	}
	return all, firstErr
}

// WaitSome blocks until at least one request completes, returning the
// indices completed (MPI_Waitsome).
func WaitSome(reqs ...*Request) ([]int, error) {
	idx, _, err := WaitAny(reqs...)
	if err != nil {
		return nil, err
	}
	done := []int{idx}
	for i, r := range reqs {
		if i == idx || r == nil {
			continue
		}
		if r.req.Done() {
			done = append(done, i)
		}
	}
	return done, nil
}

// ------------------------------------------------------------- persistent --

// Persistent is a persistent communication request (MPI_Send_init /
// MPI_Recv_init): Start launches one instance of the operation.
type Persistent struct {
	c      *Comm
	isRecv bool
	mode   core.Mode
	peer   int
	tag    int
	buf    []byte
}

// SendInit creates a persistent standard-mode send.
func (c *Comm) SendInit(dst, tag int, buf []byte) *Persistent {
	return &Persistent{c: c, mode: core.ModeStandard, peer: dst, tag: tag, buf: buf}
}

// SsendInit creates a persistent synchronous-mode send.
func (c *Comm) SsendInit(dst, tag int, buf []byte) *Persistent {
	return &Persistent{c: c, mode: core.ModeSync, peer: dst, tag: tag, buf: buf}
}

// RecvInit creates a persistent receive.
func (c *Comm) RecvInit(src, tag int, buf []byte) *Persistent {
	return &Persistent{c: c, isRecv: true, peer: src, tag: tag, buf: buf}
}

// Start launches one instance of the persistent operation.
func (pr *Persistent) Start() (*Request, error) {
	if pr.isRecv {
		return pr.c.Irecv(pr.peer, pr.tag, pr.buf)
	}
	return pr.c.isend(pr.peer, pr.tag, pr.mode, pr.buf)
}

// StartAll launches a set of persistent operations (MPI_Startall).
func StartAll(prs ...*Persistent) ([]*Request, error) {
	reqs := make([]*Request, len(prs))
	for i, pr := range prs {
		r, err := pr.Start()
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	return reqs, nil
}
