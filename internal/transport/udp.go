// Package transport provides a real UDP transport for PANDAS nodes,
// playing the role the libp2p/devp2p stack plays for the paper's
// prototype: every node binds a UDP socket, protocol messages are
// serialized with the wire codec, and peers are addressed by index into a
// shared peer table.
//
// The transport satisfies core.Transport. Each endpoint owns a
// single-threaded event loop, so the (deliberately lock-free) core.Node
// state machine runs exactly as it does on the simulator's event loop.
//
// The table comes from whoever deploys the node (a static peers file, or
// the swarm supervisor) and may be replaced while the endpoint is live, as
// when a restarted peer comes back on a new socket. Lookups go through an
// immutable snapshot swapped atomically, so the receive loop never sees a
// half-rebuilt table. A datagram from an address not in the table is
// dropped before it is decoded.
package transport

import (
	"errors"
	"fmt"
	"math/bits"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"pandas/internal/wire"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("transport: closed")

// peerTable is an immutable peer-table snapshot: addrs[i] is peer i's
// address (the zero AddrPort = unknown), index inverts it. Updates build
// a fresh table and swap it atomically, so the index can never hold an
// entry for an address that was shrunk away or rebound to another peer —
// the stale-entry hazard of mutating the map in place. Addresses are
// unmapped (an IPv4 peer is keyed by its 4-byte form whatever family
// the socket reports), so the source of a datagram is looked up as the
// comparable value the socket returns, with no string built per packet.
type peerTable struct {
	addrs []netip.AddrPort
	index map[netip.AddrPort]int
}

func (t *peerTable) lookup(addr netip.AddrPort) (int, bool) {
	if t == nil {
		return 0, false
	}
	i, ok := t.index[addr]
	return i, ok
}

// unmap returns ap with an IPv4-mapped IPv6 address as plain IPv4.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// resolve parses or looks up a host:port peer address.
func resolve(addr string) (netip.AddrPort, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	return unmap(ua.AddrPort()), nil
}

// datagram is one received packet on its way from the receive loop to the
// event loop. Its buffer is as large as its size class, not as the 64 KB
// the socket is read into: most datagrams are ~60-byte queries and
// thousands can wait in the queue. Datagrams are recycled through
// datagramPools, so steady-state reception allocates nothing.
type datagram struct {
	buf  []byte // the packet; cap(buf) is the size class
	from int    // sender's peer index
}

// Datagram size classes are powers of two from 64 B to 64 KB.
const (
	minClassBits = 6
	maxClassBits = 16
)

var datagramPools [maxClassBits - minClassBits + 1]sync.Pool

// newDatagram returns a recycled datagram holding a copy of pkt.
func newDatagram(pkt []byte) *datagram {
	class := sizeClass(len(pkt))
	d, _ := datagramPools[class].Get().(*datagram)
	if d == nil {
		d = &datagram{buf: make([]byte, 1<<(class+minClassBits))}
	}
	d.buf = append(d.buf[:0], pkt...)
	return d
}

func (d *datagram) recycle() { datagramPools[sizeClass(cap(d.buf))].Put(d) }

// sizeClass returns the index of the smallest class holding n bytes.
func sizeClass(n int) int {
	return bits.Len(uint(max(n, 1<<minClassBits)-1)) - minClassBits
}

// sendBufs recycles encode buffers: the socket write has copied the bytes
// when it returns, so a sender needs a buffer only for the duration of
// Send. Pooled across endpoints, a process keeps about one per CPU rather
// than one per socket.
var sendBufs = sync.Pool{New: func() any { return new([]byte) }}

// event is one unit of work for the event loop: a function to run, or a
// received datagram to decode and hand to the handler.
type event struct {
	fn func()
	dg *datagram
}

// UDP is one node's transport endpoint.
type UDP struct {
	self      int
	cellBytes int
	conn      *net.UDPConn
	table     atomic.Pointer[peerTable]
	start     time.Time

	events  chan event
	done    chan struct{}
	wg      sync.WaitGroup
	handler func(from, size int, payload any)

	// linkPolicy is a test hook interposed on outgoing datagrams to
	// inject loss and reordering; nil sends directly.
	linkPolicy atomic.Pointer[func(to int, data []byte) (drop bool, delay time.Duration)]

	mu      sync.Mutex // guards closed, started, cellBytes before Start, and timers
	closed  bool
	started bool
	// timers holds every armed, unfired After timer so that Close can
	// stop them: a pending timer keeps its callback — and through it the
	// node and its store — reachable until it fires.
	timers map[*time.Timer]struct{}
}

// NewUDP binds a UDP endpoint. bind is this node's listen address
// ("127.0.0.1:0" picks a port); peers will be filled in later with
// SetPeers once participants' addresses are known. cellBytes is
// the cell payload size for the wire codec (settable until Start via
// SetCellBytes when it is not yet known at bind time).
func NewUDP(self int, bind string, cellBytes int) (*UDP, error) {
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", bind, err)
	}
	return &UDP{
		self:      self,
		cellBytes: cellBytes,
		conn:      conn,
		start:     time.Now(),
		// A slot's burst — a seed batch, or the replies to a round's
		// queries — must fit while the event loop is busy reconstructing.
		events: make(chan event, 4096),
		done:   make(chan struct{}),
		timers: make(map[*time.Timer]struct{}),
	}, nil
}

// Addr returns the bound address (host:port).
func (u *UDP) Addr() string { return u.conn.LocalAddr().String() }

// SetCellBytes fixes the wire codec's cell payload size. It must be
// called before Start; the swarm worker uses it because the geometry
// arrives over the control channel after the socket is bound.
func (u *UDP) SetCellBytes(n int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.started {
		panic("transport: SetCellBytes after Start")
	}
	u.cellBytes = n
}

// SetPeers installs the peer table: addrs[i] is node i's address, where
// an empty string marks a peer whose address is not yet known (sends to
// it are dropped until a later SetPeers fills it in). Safe to call while
// the endpoint is live: the table is rebuilt from scratch and swapped
// atomically, so shrinking the table or rebinding an index to a new
// address never leaves a stale address mapped to the wrong peer.
func (u *UDP) SetPeers(addrs []string) error {
	t := &peerTable{
		addrs: make([]netip.AddrPort, len(addrs)),
		index: make(map[netip.AddrPort]int, len(addrs)),
	}
	for i, a := range addrs {
		if a == "" {
			continue
		}
		ap, err := resolve(a)
		if err != nil {
			return fmt.Errorf("transport: resolve peer %d %q: %w", i, a, err)
		}
		t.addrs[i] = ap
		t.index[ap] = i
	}
	u.table.Store(t)
	return nil
}

// SetLinkPolicy interposes a test hook on every outgoing datagram: drop
// suppresses it, a positive delay defers the socket write (out-of-order
// delivery). data is valid only during the call. A nil policy restores
// direct sends.
func (u *UDP) SetLinkPolicy(p func(to int, data []byte) (drop bool, delay time.Duration)) {
	if p == nil {
		u.linkPolicy.Store(nil)
		return
	}
	u.linkPolicy.Store(&p)
}

// Start launches the receive and event loops; handler receives decoded
// protocol messages on the event loop.
//
// A Seed, Query or Response is lent to the handler, not given: it is
// decoded in place over the datagram's buffer into structs the endpoint
// reuses (wire.DecodeInto), so the message, its slices and its cell
// payloads (marked wire.Cell.Borrowed) are valid only until the handler
// returns. A handler that keeps any of it copies it first.
func (u *UDP) Start(handler func(from, size int, payload any)) {
	u.mu.Lock()
	u.handler = handler
	u.started = true
	u.mu.Unlock()
	u.wg.Add(2)
	go u.eventLoop()
	go u.receiveLoop()
}

// Run schedules fn on the endpoint's event loop (e.g. to start a slot on
// the same thread as message handling). After Close it does nothing.
func (u *UDP) Run(fn func()) { u.enqueue(event{fn: fn}) }

// enqueue hands ev to the event loop, blocking while the queue is full,
// and reports false if the endpoint closed instead. done is polled first
// so that a closed endpoint's queue does not go on collecting events.
func (u *UDP) enqueue(ev event) bool {
	select {
	case <-u.done:
		return false
	default:
	}
	select {
	case u.events <- ev:
		return true
	case <-u.done:
		return false
	}
}

func (u *UDP) eventLoop() {
	defer u.wg.Done()
	var inbox wire.Inbox
	for {
		select {
		case ev := <-u.events:
			if ev.fn != nil {
				ev.fn()
			} else {
				u.deliver(&inbox, ev.dg)
			}
		case <-u.done:
			return
		}
	}
}

// deliver decodes one datagram in place and lends the message to the
// handler; the buffer goes back to the pool when the handler returns.
func (u *UDP) deliver(inbox *wire.Inbox, d *datagram) {
	defer d.recycle()
	msg, err := wire.DecodeInto(inbox, d.buf, u.cellBytes)
	if err != nil {
		return // malformed datagram
	}
	if u.handler != nil {
		u.handler(d.from, len(d.buf)+wire.OverheadIPUDP, msg)
	}
}

func (u *UDP) receiveLoop() {
	defer u.wg.Done()
	buf := make([]byte, 1<<maxClassBits)
	for {
		n, raddr, err := u.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-u.done:
				return
			default:
			}
			continue
		}
		from, known := u.table.Load().lookup(unmap(raddr))
		if !known {
			continue // not a peer
		}
		d := newDatagram(buf[:n])
		d.from = from
		if !u.enqueue(event{dg: d}) {
			d.recycle()
		}
	}
}

// Send implements core.Transport: encode into a pooled buffer and
// transmit one datagram. Errors (unknown peer, encode failure) are dropped silently, matching
// UDP's fire-and-forget semantics.
func (u *UDP) Send(to int, size int, payload any) {
	t := u.table.Load()
	if t == nil || to < 0 || to >= len(t.addrs) || !t.addrs[to].IsValid() {
		return
	}
	addr := t.addrs[to]
	msg, ok := payload.(wire.Message)
	if !ok {
		return
	}
	bp := sendBufs.Get().(*[]byte)
	data, err := wire.EncodeAppend((*bp)[:0], msg, u.cellBytes)
	if err != nil {
		sendBufs.Put(bp)
		return
	}
	*bp = data // keep what the encoder grew
	if pp := u.linkPolicy.Load(); pp != nil {
		drop, delay := (*pp)(to, data)
		if drop {
			sendBufs.Put(bp)
			return
		}
		if delay > 0 {
			// The deferred write owns the buffer until it has happened.
			time.AfterFunc(delay, func() {
				_, _ = u.conn.WriteToUDPAddrPort(data, addr)
				sendBufs.Put(bp)
			})
			return
		}
	}
	_, _ = u.conn.WriteToUDPAddrPort(data, addr)
	sendBufs.Put(bp)
}

// SendReliable implements core.Transport. Real UDP offers no reliability
// distinction; it is identical to Send.
func (u *UDP) SendReliable(to int, size int, payload any) { u.Send(to, size, payload) }

// After implements core.Transport using wall-clock timers delivered onto
// the event loop. Timers still pending at Close are stopped there and
// never run; After on a closed endpoint arms nothing.
func (u *UDP) After(d time.Duration, fn func()) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		u.mu.Lock()
		delete(u.timers, t)
		u.mu.Unlock()
		u.Run(fn)
	})
	u.timers[t] = struct{}{}
}

// Now implements core.Transport: time since the endpoint started.
func (u *UDP) Now() time.Duration { return time.Since(u.start) }

// Close shuts the endpoint down, stops its pending After timers and waits
// for its loops.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return ErrClosed
	}
	u.closed = true
	started := u.started
	for t := range u.timers {
		t.Stop()
	}
	clear(u.timers)
	u.mu.Unlock()
	close(u.done)
	err := u.conn.Close()
	if started {
		u.wg.Wait()
	}
	return err
}
