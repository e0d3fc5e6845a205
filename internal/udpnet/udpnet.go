// Package udpnet is a UDP transport for the consensus runtime — the
// paper's implementation also used UDP sockets. Envelopes are encoded with
// the types wire codec, one datagram per message; loss, duplication and
// reordering are inherent and the protocols tolerate all three. An optional
// loss injector reproduces the paper's tc-based experiments on real
// deployments.
package udpnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"

	"github.com/hraft-io/hraft/internal/runtime"
	"github.com/hraft-io/hraft/internal/types"
)

// MaxDatagram bounds the encoded envelope size. Batches and catch-up
// AppendEntries can be large; 60 KiB stays within a UDP datagram.
const MaxDatagram = 60 * 1024

// ErrTooLarge reports an envelope exceeding MaxDatagram.
var ErrTooLarge = errors.New("udpnet: message exceeds datagram size")

// encBufs recycles encode scratch buffers across Send calls so the steady
// state allocates neither the buffer nor the datagram copy.
var encBufs = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// Transport is a runtime.Transport over a UDP socket.
type Transport struct {
	id   types.NodeID
	conn *net.UDPConn

	mu     sync.Mutex
	peers  map[types.NodeID]*net.UDPAddr
	h      func(types.Envelope)
	closed bool

	lossMu sync.Mutex
	rng    *rand.Rand
	loss   float64
}

// Listen opens a UDP transport for node id on addr (e.g. "127.0.0.1:7001").
func Listen(id types.NodeID, addr string) (*Transport, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %s: %w", addr, err)
	}
	t := &Transport{
		id:    id,
		conn:  conn,
		peers: make(map[types.NodeID]*net.UDPAddr),
		rng:   rand.New(rand.NewSource(int64(len(id)) + 1)),
	}
	go t.readLoop()
	return t, nil
}

// LocalAddr returns the bound address.
func (t *Transport) LocalAddr() string { return t.conn.LocalAddr().String() }

// AddPeer registers the UDP address of a peer node (or a C-Raft cluster
// endpoint).
func (t *Transport) AddPeer(id types.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udpnet: resolve peer %s=%s: %w", id, addr, err)
	}
	t.mu.Lock()
	t.peers[id] = ua
	t.mu.Unlock()
	return nil
}

// SetLoss injects independent per-message send loss (0 disables), matching
// the paper's tc experiments.
func (t *Transport) SetLoss(p float64) {
	t.lossMu.Lock()
	t.loss = p
	t.lossMu.Unlock()
}

// Send implements runtime.Transport. Ownership of the envelope's pooled
// parts (entry slices) transfers to the transport: they are recycled once
// the datagram is encoded, so callers must not retain or re-send them.
func (t *Transport) Send(env types.Envelope) error {
	t.lossMu.Lock()
	drop := t.loss > 0 && t.rng.Float64() < t.loss
	t.lossMu.Unlock()
	if drop {
		return nil
	}
	t.mu.Lock()
	addr, ok := t.peers[env.To]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return runtime.ErrClosed
	}
	if !ok {
		return nil // unknown peer: drop, like a lost datagram
	}
	bp := encBufs.Get().(*[]byte)
	buf, err := types.AppendEnvelope((*bp)[:0], env)
	if err != nil {
		encBufs.Put(bp)
		return fmt.Errorf("udpnet: encode: %w", err)
	}
	*bp = buf[:0]
	if len(buf) > MaxDatagram {
		encBufs.Put(bp)
		return ErrTooLarge
	}
	// The envelope is on the wire; this transport serializes, so it is the
	// last owner and returns the pooled message parts.
	types.RecycleEnvelope(env)
	_, werr := t.conn.WriteToUDP(buf, addr)
	encBufs.Put(bp)
	if werr != nil {
		// Transient send errors are message loss.
		return nil
	}
	return nil
}

// SetHandler implements runtime.Transport. The handler must not retain
// the envelope's entry slices past its return: the transport recycles
// them (entry Data payloads stay valid — only the slices are reused).
func (t *Transport) SetHandler(h func(types.Envelope)) {
	t.mu.Lock()
	t.h = h
	t.mu.Unlock()
}

// Close implements runtime.Transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.h = nil
	t.mu.Unlock()
	return t.conn.Close()
}

func (t *Transport) readLoop() {
	buf := make([]byte, MaxDatagram+1)
	for {
		// The envelope names its sender; ReadFromUDP would allocate an
		// address per datagram only to have it thrown away.
		n, err := t.conn.Read(buf)
		if err != nil {
			return // closed
		}
		env, derr := types.DecodeEnvelope(buf[:n])
		if derr != nil {
			continue // corrupt datagram: drop
		}
		t.mu.Lock()
		h := t.h
		t.mu.Unlock()
		if h != nil {
			h(env)
		}
		// The handler has returned and the cores copy entries out of the
		// message before installing them; the decode-side pooled slices
		// can go back.
		types.RecycleEnvelope(env)
	}
}

var _ runtime.Transport = (*Transport)(nil)
