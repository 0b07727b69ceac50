// Package transport provides a real UDP transport for PANDAS nodes,
// playing the role the libp2p/devp2p stack plays for the paper's
// prototype: every node binds a UDP socket, protocol messages are
// serialized with the wire codec, and peers are addressed by index into a
// shared peer table (the crawled "view").
//
// The transport satisfies core.Transport. Each endpoint owns a
// single-threaded event loop, so the (deliberately lock-free) core.Node
// state machine runs exactly as it does on the simulator's event loop.
//
// The peer table is dynamic: it can start sparse (addresses unknown) and
// be filled in or rebound while the endpoint is live — the substrate the
// swarm runtime's discovery crawl builds on. Lookups go through an
// immutable snapshot swapped atomically, so the receive loop never sees
// a half-rebuilt table.
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
	buf  []byte         // the packet; cap(buf) is the size class
	from int            // sender's peer index, -1 when not in the table
	addr netip.AddrPort // sender's address, for the unknown-sender handler
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

	// unknown receives decoded datagrams from senders absent from the
	// peer table (discovery traffic from late joiners); nil drops them.
	unknown atomic.Pointer[func(raddr netip.AddrPort, size int, payload any)]

	// linkPolicy is a test hook interposed on outgoing datagrams to
	// inject loss and reordering; nil sends directly.
	linkPolicy atomic.Pointer[func(to int, data []byte) (drop bool, delay time.Duration)]

	mu      sync.Mutex // serializes Close, timer arming and peer-table writers
	closed  bool
	started bool
	// timers holds every armed, unfired After timer so that Close can
	// stop them: a pending timer keeps its callback — and through it the
	// node and its store — reachable until it fires.
	timers map[*time.Timer]struct{}
}

// NewUDP binds a UDP endpoint. bind is this node's listen address
// ("127.0.0.1:0" picks a port); peers will be filled in later with
// SetPeers/AddPeer once participants' addresses are known. cellBytes is
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
// it are dropped until AddPeer fills it in). Safe to call while the
// endpoint is live: the table is rebuilt from scratch and swapped
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
	u.mu.Lock()
	u.table.Store(t)
	u.mu.Unlock()
	return nil
}

// AddPeer binds index i to addr, growing the table if needed. If i was
// previously bound to a different address, the old mapping is removed
// (a restarted peer rebinding its index to a fresh socket); if addr was
// previously bound to a different index, that index loses the address.
// Safe to call concurrently with the receive loop.
func (u *UDP) AddPeer(i int, addr string) error {
	if i < 0 {
		return fmt.Errorf("transport: add peer: negative index %d", i)
	}
	ap, err := resolve(addr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %d %q: %w", i, addr, err)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	old := u.table.Load()
	n := i + 1
	if old != nil && len(old.addrs) > n {
		n = len(old.addrs)
	}
	t := &peerTable{addrs: make([]netip.AddrPort, n), index: make(map[netip.AddrPort]int, n)}
	if old != nil {
		copy(t.addrs, old.addrs)
		for a, j := range old.index {
			t.index[a] = j
		}
	}
	if prev := t.addrs[i]; prev.IsValid() && t.index[prev] == i {
		delete(t.index, prev)
	}
	if j, ok := t.index[ap]; ok && j != i && j < len(t.addrs) {
		// The address moved between indexes; the displaced peer keeps no
		// claim on it.
		t.addrs[j] = netip.AddrPort{}
	}
	t.addrs[i] = ap
	t.index[ap] = i
	u.table.Store(t)
	return nil
}

// Peers returns a snapshot of the peer table as strings (empty = entry
// unknown). The result is a private copy.
func (u *UDP) Peers() []string {
	t := u.table.Load()
	if t == nil {
		return nil
	}
	out := make([]string, len(t.addrs))
	for i, a := range t.addrs {
		if a.IsValid() {
			out[i] = a.String()
		}
	}
	return out
}

// Known returns how many peer-table entries have addresses.
func (u *UDP) Known() int {
	t := u.table.Load()
	if t == nil {
		return 0
	}
	n := 0
	for _, a := range t.addrs {
		if a.IsValid() {
			n++
		}
	}
	return n
}

// SetUnknownSender installs a handler for decoded datagrams whose sender
// is not in the peer table; it runs on the event loop like the main
// handler. The swarm discovery plane uses it to serve FindPeers from
// late joiners before they are registered.
func (u *UDP) SetUnknownSender(h func(raddr netip.AddrPort, size int, payload any)) {
	if h == nil {
		u.unknown.Store(nil)
		return
	}
	u.unknown.Store(&h)
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
// returns. A handler that keeps any of it copies it first. Control and
// discovery messages own their memory and may be retained.
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
	size := len(d.buf) + wire.OverheadIPUDP
	if d.from >= 0 {
		if u.handler != nil {
			u.handler(d.from, size, msg)
		}
	} else if hp := u.unknown.Load(); hp != nil {
		(*hp)(d.addr, size, msg)
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
		raddr = unmap(raddr)
		from, known := u.table.Load().lookup(raddr)
		if !known {
			if u.unknown.Load() == nil {
				continue // unknown sender, no discovery plane
			}
			from = -1
		}
		d := newDatagram(buf[:n])
		d.from, d.addr = from, raddr
		if !u.enqueue(event{dg: d}) {
			d.recycle()
		}
	}
}

// Send implements core.Transport: encode and transmit one datagram.
// Errors (unknown peer, encode failure) are dropped silently, matching
// UDP's fire-and-forget semantics.
func (u *UDP) Send(to int, size int, payload any) {
	t := u.table.Load()
	if t == nil || to < 0 || to >= len(t.addrs) || !t.addrs[to].IsValid() {
		return
	}
	u.send(t.addrs[to], to, payload)
}

// SendToAddr transmits a message directly to a UDP address that need not
// be in the peer table (discovery replies to not-yet-registered peers).
func (u *UDP) SendToAddr(addr netip.AddrPort, payload any) { u.send(addr, -1, payload) }

// send encodes payload into a pooled buffer and writes it to addr. to is
// the peer index the link policy sees; a negative one bypasses the policy.
func (u *UDP) send(addr netip.AddrPort, to int, payload any) {
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
	if pp := u.linkPolicy.Load(); pp != nil && to >= 0 {
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
