package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// InProcNetwork connects hosts within one process. Each endpoint has a
// dispatcher goroutine and a bounded queue (overflow is dropped — the
// protocols tolerate loss). Optional latency and loss injection let the
// runnable examples emulate geo-distributed deployments in real time.
//
// Envelopes follow the Transport ownership rule: Send takes the envelope
// without copying it, and the receiving endpoint gives its pooled parts
// back once the handler returns. A delayed envelope waits in its
// destination endpoint's delay line — one timer and one min-heap per
// endpoint — and is delivered no earlier than its send instant plus
// Latency, in send order per link.
type InProcNetwork struct {
	mu        sync.Mutex
	endpoints map[types.NodeID]*inprocEndpoint
	rng       *rand.Rand
	closed    bool
	// epoch is the origin of the delay lines' clock.
	epoch time.Time

	// Latency, when set, returns the one-way delivery delay for an
	// envelope. Nil means immediate delivery.
	Latency func(from, to types.NodeID) time.Duration
	// LossProb is the independent drop probability per message.
	LossProb float64
}

// NewInProcNetwork returns an empty in-process network. Seed drives loss
// sampling.
func NewInProcNetwork(seed int64) *InProcNetwork {
	return &InProcNetwork{
		endpoints: make(map[types.NodeID]*inprocEndpoint),
		rng:       rand.New(rand.NewSource(seed)),
		epoch:     time.Now(),
	}
}

// clock reads the delay lines' clock.
func (n *InProcNetwork) clock() time.Duration { return time.Since(n.epoch) }

// inprocEndpoint is one node's attachment point.
type inprocEndpoint struct {
	net    *InProcNetwork
	id     types.NodeID
	mu     sync.Mutex
	h      func(types.Envelope)
	queue  chan types.Envelope
	closed bool

	// The delay line: envelopes in flight to this endpoint, earliest
	// delivery first. timer fires at armed, the head's delivery instant
	// (0 = not armed); last holds each link's latest delivery instant so a
	// link stays FIFO even if its Latency varies.
	line  delayLine
	timer *time.Timer
	armed time.Duration
	last  map[types.NodeID]time.Duration
}

// ErrClosed reports use of a closed transport.
var ErrClosed = errors.New("runtime: transport closed")

// Endpoint creates (or returns) the transport for a node ID. A closed
// endpoint (its node was stopped) is replaced by a fresh one, so a node
// restarted from stable storage can rejoin the network under its old ID.
func (n *InProcNetwork) Endpoint(id types.NodeID) Transport {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[id]; ok && !ep.isClosed() {
		return ep
	}
	ep := &inprocEndpoint{
		net:   n,
		id:    id,
		queue: make(chan types.Envelope, 1024),
		last:  make(map[types.NodeID]time.Duration),
	}
	n.endpoints[id] = ep
	go ep.run()
	return ep
}

// Detach removes an endpoint (simulating a crash); future sends to it drop,
// and so do the envelopes still in flight to it.
func (n *InProcNetwork) Detach(id types.NodeID) {
	n.mu.Lock()
	ep := n.endpoints[id]
	delete(n.endpoints, id)
	n.mu.Unlock()
	if ep != nil {
		_ = ep.Close()
	}
}

// Close shuts the whole network down, dropping every envelope in flight.
func (n *InProcNetwork) Close() {
	n.mu.Lock()
	eps := make([]*inprocEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.endpoints = make(map[types.NodeID]*inprocEndpoint)
	n.closed = true
	n.mu.Unlock()
	for _, ep := range eps {
		_ = ep.Close()
	}
}

func (ep *inprocEndpoint) run() {
	for env := range ep.queue {
		ep.mu.Lock()
		h := ep.h
		ep.mu.Unlock()
		if h != nil {
			h(env)
		}
		// The handler has returned: this endpoint is the envelope's last
		// owner.
		types.RecycleEnvelope(env)
	}
}

// Send implements Transport. The envelope is not copied: ownership passes
// to the network, as the Transport contract says.
func (ep *inprocEndpoint) Send(env types.Envelope) error {
	n := ep.net
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		types.RecycleEnvelope(env)
		return ErrClosed
	}
	if n.LossProb > 0 && n.rng.Float64() < n.LossProb {
		n.mu.Unlock()
		types.RecycleEnvelope(env)
		return nil // dropped, like a lost datagram
	}
	dst, ok := n.endpoints[env.To]
	var delay time.Duration
	if ok && n.Latency != nil {
		delay = n.Latency(env.From, env.To)
	}
	n.mu.Unlock()
	if !ok {
		types.RecycleEnvelope(env)
		return nil // unroutable: drop silently, like UDP
	}
	dst.accept(env, delay)
	return nil
}

// accept queues env for delivery after delay: at once when the link has
// nothing in flight and there is no delay, through the delay line
// otherwise.
func (ep *inprocEndpoint) accept(env types.Envelope, delay time.Duration) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		types.RecycleEnvelope(env) // racing Close: lost, like a datagram
		return
	}
	if delay <= 0 && ep.line.len() == 0 {
		ep.enqueue(env)
		return
	}
	now := ep.net.clock()
	at := max(now+delay, ep.last[env.From])
	if at <= now {
		ep.enqueue(env)
		return
	}
	ep.last[env.From] = at
	ep.line.push(env, at)
	if ep.armed == 0 || at < ep.armed {
		ep.arm(now)
	}
}

// enqueue hands env to the dispatcher; a full queue drops it
// (backpressure as loss). Callers hold ep.mu.
func (ep *inprocEndpoint) enqueue(env types.Envelope) {
	select {
	case ep.queue <- env:
	default:
		types.RecycleEnvelope(env)
	}
}

// arm sets the timer for the delay line's head. Callers hold ep.mu.
func (ep *inprocEndpoint) arm(now time.Duration) {
	ep.armed = ep.line.head()
	if ep.timer == nil {
		ep.timer = time.AfterFunc(ep.armed-now, ep.fire)
		return
	}
	ep.timer.Reset(ep.armed - now)
}

// fire delivers every envelope whose instant has come and re-arms the timer
// for the next one.
func (ep *inprocEndpoint) fire() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.armed = 0
	if ep.closed {
		return
	}
	now := ep.net.clock()
	for ep.line.len() > 0 && ep.line.head() <= now {
		ep.enqueue(ep.line.pop())
	}
	if ep.line.len() > 0 {
		ep.arm(now)
	}
}

// SetHandler implements Transport.
func (ep *inprocEndpoint) SetHandler(h func(types.Envelope)) {
	ep.mu.Lock()
	ep.h = h
	ep.mu.Unlock()
}

func (ep *inprocEndpoint) isClosed() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.closed
}

// Close implements Transport. Envelopes still in the delay line are
// dropped; an endpoint later created under the same ID starts empty.
func (ep *inprocEndpoint) Close() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return nil
	}
	ep.closed = true
	ep.h = nil
	if ep.timer != nil {
		ep.timer.Stop()
	}
	for ep.line.len() > 0 {
		types.RecycleEnvelope(ep.line.pop())
	}
	close(ep.queue)
	return nil
}

var _ Transport = (*inprocEndpoint)(nil)

// String aids debugging.
func (ep *inprocEndpoint) String() string { return fmt.Sprintf("inproc(%s)", ep.id) }

// delayed is one envelope in a delay line: deliver at at; seq breaks ties
// in send order.
type delayed struct {
	at  time.Duration
	seq uint64
	env types.Envelope
}

// delayLine is a value-typed binary min-heap of delayed envelopes ordered
// by (at, seq). It is not container/heap, whose interface would box every
// element.
type delayLine struct {
	h   []delayed
	seq uint64 // pushes so far: the next envelope's tie-break
}

func (l *delayLine) len() int { return len(l.h) }

func (l *delayLine) less(i, j int) bool {
	if l.h[i].at != l.h[j].at {
		return l.h[i].at < l.h[j].at
	}
	return l.h[i].seq < l.h[j].seq
}

// head returns the earliest delivery instant; the line must not be empty.
func (l *delayLine) head() time.Duration { return l.h[0].at }

// push adds env for delivery at at.
func (l *delayLine) push(env types.Envelope, at time.Duration) {
	l.h = append(l.h, delayed{at: at, seq: l.seq, env: env})
	l.seq++
	for i := len(l.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !l.less(i, p) {
			break
		}
		l.h[i], l.h[p] = l.h[p], l.h[i]
		i = p
	}
}

// pop removes and returns the earliest envelope.
func (l *delayLine) pop() types.Envelope {
	env := l.h[0].env
	last := len(l.h) - 1
	l.h[0] = l.h[last]
	l.h[last] = delayed{}
	l.h = l.h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(l.h) {
			break
		}
		if r := c + 1; r < len(l.h) && l.less(r, c) {
			c = r
		}
		if !l.less(c, i) {
			break
		}
		l.h[i], l.h[c] = l.h[c], l.h[i]
		i = c
	}
	return env
}
