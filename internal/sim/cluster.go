package sim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proto"
)

// ErrClosed is returned by Cluster operations after Close.
var ErrClosed = errors.New("sim: cluster closed")

// DropRule decides whether the message from `from` to `to` is lost in the
// given (1-based) round. A nil rule drops nothing.
type DropRule func(round, from, to int) bool

// Cluster executes a synchronous protocol as n concurrent worker
// goroutines exchanging messages through a round controller. It exists to
// run the same protocols the analysis engine reasons about as real
// concurrent processes; the controller enacts the environment (message
// drops) between the send and deliver phases of each round.
//
// A Cluster owns its goroutines: Close signals them to stop and waits for
// them to exit.
type Cluster struct {
	n       int
	p       proto.SyncProtocol
	workers []*worker
	round   int
	closed  bool
	wg      sync.WaitGroup
}

type worker struct {
	id    int
	reqC  chan workerReq
	stopC chan struct{}
}

type workerReq struct {
	// deliver is nil for a send-phase request; otherwise the received
	// message vector to consume.
	deliver []string
	respC   chan workerResp
}

type workerResp struct {
	sends   []string
	state   string
	decided int
	ok      bool
}

// NewCluster starts n workers running protocol p from the given inputs.
func NewCluster(p proto.SyncProtocol, inputs []int) *Cluster {
	n := len(inputs)
	c := &Cluster{n: n, p: p, workers: make([]*worker, n)}
	for i := 0; i < n; i++ {
		w := &worker{
			id:    i,
			reqC:  make(chan workerReq),
			stopC: make(chan struct{}),
		}
		c.workers[i] = w
		state := p.Init(n, i, inputs[i])
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serve(w, state)
		}()
	}
	return c
}

// serve is the worker goroutine: it answers send-phase and deliver-phase
// requests until stopped.
func (c *Cluster) serve(w *worker, state string) {
	for {
		select {
		case <-w.stopC:
			return
		case req := <-w.reqC:
			if req.deliver == nil {
				req.respC <- c.respFor(state, c.p.Send(state))
				continue
			}
			state = c.p.Deliver(state, req.deliver)
			req.respC <- c.respFor(state, nil)
		}
	}
}

func (c *Cluster) respFor(state string, sends []string) workerResp {
	resp := workerResp{sends: sends, state: state, decided: core.Undecided}
	if v, ok := c.p.Decide(state); ok {
		resp.decided = v
		resp.ok = true
	}
	return resp
}

// Step runs one synchronous round under the drop rule and returns the
// workers' post-round decisions (core.Undecided where undecided).
func (c *Cluster) Step(drop DropRule) ([]int, error) {
	if c.closed {
		return nil, ErrClosed
	}
	c.round++
	// Send phase: collect everyone's messages concurrently.
	sends := make([][]string, c.n)
	resps := make([]chan workerResp, c.n)
	for i, w := range c.workers {
		resps[i] = make(chan workerResp, 1)
		w.reqC <- workerReq{respC: resps[i]}
	}
	for i := range c.workers {
		r := <-resps[i]
		sends[i] = r.sends
	}
	// Route with drops, then deliver concurrently.
	routed, dropped := 0, 0
	decisions := make([]int, c.n)
	for j, w := range c.workers {
		in := make([]string, c.n)
		for i := 0; i < c.n; i++ {
			if i == j {
				in[i] = ""
				continue
			}
			if drop != nil && drop(c.round, i, j) {
				in[i] = ""
				dropped++
				continue
			}
			if j < len(sends[i]) {
				in[i] = sends[i][j]
				routed++
			}
		}
		resps[j] = make(chan workerResp, 1)
		w.reqC <- workerReq{deliver: in, respC: resps[j]}
	}
	for j := range c.workers {
		r := <-resps[j]
		decisions[j] = r.decided
	}
	rec := obs.Active()
	rec.Add("sim.rounds", 1)
	rec.Add("sim.messages", int64(routed))
	rec.Add("sim.drops", int64(dropped))
	return decisions, nil
}

// RunRounds executes the given number of rounds and returns the final
// decisions.
func (c *Cluster) RunRounds(rounds int, drop DropRule) ([]int, error) {
	var decisions []int
	var err error
	for r := 0; r < rounds; r++ {
		decisions, err = c.Step(drop)
		if err != nil {
			return nil, err
		}
	}
	return decisions, nil
}

// States returns the workers' current local states (a synchronous probe
// through the request channel).
func (c *Cluster) States() ([]string, error) {
	if c.closed {
		return nil, ErrClosed
	}
	out := make([]string, c.n)
	for i, w := range c.workers {
		respC := make(chan workerResp, 1)
		w.reqC <- workerReq{respC: respC}
		r := <-respC
		out[i] = r.state
	}
	return out, nil
}

// Round returns the number of completed rounds.
func (c *Cluster) Round() int { return c.round }

// Close stops all workers and waits for them to exit. It is idempotent.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, w := range c.workers {
		close(w.stopC)
	}
	c.wg.Wait()
}

// String implements fmt.Stringer.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster(n=%d,%s,round=%d)", c.n, c.p.Name(), c.round)
}
