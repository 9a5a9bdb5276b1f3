package transport

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptiveqos/internal/clock"
)

// Link describes the characteristics of a directed link in the
// simulated network.  The zero value is an ideal link: infinite
// bandwidth, zero delay, no loss.
type Link struct {
	// BandwidthBps is the link bandwidth in bits/s; 0 means unlimited.
	BandwidthBps float64
	// Delay is the fixed propagation delay.
	Delay time.Duration
	// Jitter adds a uniformly distributed random delay in [0, Jitter].
	Jitter time.Duration
	// Loss is the independent per-frame loss probability in [0, 1].
	Loss float64
	// Duplicate is the probability a delivered frame arrives twice.
	Duplicate float64
	// Down disconnects the link entirely (partition injection).
	Down bool
}

// SimNet is the simulated broadcast network.  Nodes attach with an ID;
// multicast reaches every other attached node subject to the pairwise
// link characteristics (bandwidth serialization, delay, jitter, loss,
// duplication, partitions — see planLink).  Randomness derives from a
// seeded generator, and each send draws it over the recipients in
// sorted-ID order under one lock, so the same seed and the same sends
// give every node the same frames whatever the map iteration order.
//
// The clock type picks the delivery step; everything else is shared:
//
//   - On a *clock.Virtual every delivery, zero-delay included, is one
//     event on the clock's heap.  No goroutine sleeps: a driver
//     advances the clock and deliveries fire inline, in (instant,
//     schedule order), so a send never calls into a recipient and the
//     same seed replays byte-identical event sequences.
//   - On any other clock (nil = wall) zero-delay links deliver inline
//     on the sender's goroutine, preserving per-sender FIFO order like
//     a real loopback, and delayed ones fire from Clock.AfterFunc;
//     Close waits for them.
//
// Two attachment modes:
//
//   - Attach returns a Conn with an inbox drained by the node's own
//     goroutine (core.Client, Coordinator and the base station).  On a
//     virtual clock the consumer races the driver, so determinism is
//     forfeited.
//   - AttachHandler registers a function invoked for each delivered
//     packet on the delivering goroutine.  On a virtual clock that is
//     the driver, all node logic runs inside event callbacks, and
//     determinism is total (internal/scenario and internal/replay).
//
// Frame bytes are copied once per send and shared by every recipient,
// duplicate deliveries included: receivers must treat Packet.Data as
// read-only.
type SimNet struct {
	clk  clock.Clock
	vclk *clock.Virtual // non-nil: deliveries are heap events

	mu       sync.Mutex
	rng      *rand.Rand
	nodes    map[string]*simConn
	order    []*simConn // sorted by ID: deterministic fan-out order
	links    map[linkKey]Link
	linkBusy map[linkKey]time.Time // instants links free up
	def      Link
	mtu      int
	depth    int
	closed   bool

	wg    sync.WaitGroup // wall-clock deliveries in flight
	trace atomic.Pointer[func(TraceEvent)]
}

type linkKey struct{ from, to string }

// TraceKind labels one SimNet trace event.
type TraceKind uint8

// Trace event kinds.
const (
	TraceDeliver  TraceKind = iota // packet handed to the recipient
	TraceDrop                      // lost on the link (loss or partition)
	TraceOverflow                  // recipient inbox full
)

func (k TraceKind) String() string {
	switch k {
	case TraceDeliver:
		return "deliver"
	case TraceDrop:
		return "drop"
	case TraceOverflow:
		return "overflow"
	}
	return "trace(?)"
}

// TraceEvent describes one network-level event.  The determinism
// tests hash the stream; scenario loss curves count it.
type TraceEvent struct {
	AtNS    int64 // clock UnixNano
	From    string
	To      string
	Kind    TraceKind
	Size    int
	Unicast bool
}

// SimNetConfig configures a simulated network.
type SimNetConfig struct {
	// Seed initializes the network's random source; 0 means 1.
	Seed int64
	// DefaultLink applies to node pairs with no explicit link.
	DefaultLink Link
	// MTU bounds frame size; 0 means 64 KiB.
	MTU int
	// InboxDepth is each Attach node's receive buffer; 0 means 1024.
	// AttachHandler nodes have no buffer.
	InboxDepth int
	// Clock schedules deliveries and stamps arrivals (nil = wall
	// clock).  A *clock.Virtual puts every delivery on its event heap;
	// share it with the rest of the simulated system (SLO pollers,
	// repair tickers) so everything moves together.
	Clock clock.Clock
}

// NewSimNet creates an empty simulated network.
func NewSimNet(cfg SimNetConfig) *SimNet {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	mtu := cfg.MTU
	if mtu <= 0 {
		mtu = 64 << 10
	}
	depth := cfg.InboxDepth
	if depth <= 0 {
		depth = 1024
	}
	vclk, _ := cfg.Clock.(*clock.Virtual)
	return &SimNet{
		clk:      clock.Or(cfg.Clock),
		vclk:     vclk,
		rng:      rand.New(rand.NewSource(seed)),
		nodes:    make(map[string]*simConn),
		links:    make(map[linkKey]Link),
		linkBusy: make(map[linkKey]time.Time),
		def:      cfg.DefaultLink,
		mtu:      mtu,
		depth:    depth,
	}
}

// SetTrace installs a hook observing every delivery, drop and
// overflow (nil removes it).  It runs on the delivering goroutine, or
// the sender's for drops decided at send time, and must not call back
// into the network.
func (n *SimNet) SetTrace(f func(TraceEvent)) {
	if f == nil {
		n.trace.Store(nil)
		return
	}
	n.trace.Store(&f)
}

// Attach joins a node that receives on its Recv channel.
func (n *SimNet) Attach(id string) (Conn, error) {
	return n.attach(id, nil)
}

// AttachHandler joins a node whose packets go to h, invoked on the
// delivering goroutine; h may itself send.
func (n *SimNet) AttachHandler(id string, h func(Packet)) (Conn, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler for %q", id)
	}
	return n.attach(id, h)
}

func (n *SimNet) attach(id string, h func(Packet)) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	c := &simConn{net: n, id: id, handler: h}
	if h == nil {
		c.inbox = make(chan Packet, n.depth)
	}
	n.nodes[id] = c
	i := n.indexLocked(id)
	n.order = append(n.order, nil)
	copy(n.order[i+1:], n.order[i:])
	n.order[i] = c
	return c, nil
}

// indexLocked is the position of id in the sorted node order.
func (n *SimNet) indexLocked(id string) int {
	return sort.Search(len(n.order), func(i int) bool { return n.order[i].id >= id })
}

// SetLink installs directed link characteristics between two nodes.
func (n *SimNet) SetLink(from, to string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{from, to}] = l
}

// SetLinkBoth installs the same characteristics in both directions.
func (n *SimNet) SetLinkBoth(a, b string, l Link) {
	n.SetLink(a, b, l)
	n.SetLink(b, a, l)
}

// SetDefaultLink replaces the default link characteristics.
func (n *SimNet) SetDefaultLink(l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = l
}

// Partition takes the directed links between two nodes down or up.
func (n *SimNet) Partition(a, b string, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, k := range []linkKey{{a, b}, {b, a}} {
		l := n.linkLocked(k.from, k.to)
		l.Down = down
		n.links[k] = l
	}
}

func (n *SimNet) linkLocked(from, to string) Link {
	if l, ok := n.links[linkKey{from, to}]; ok {
		return l
	}
	return n.def
}

// NodeIDs returns the attached node IDs in sorted order.
func (n *SimNet) NodeIDs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]string, len(n.order))
	for i, c := range n.order {
		ids[i] = c.id
	}
	return ids
}

// Stats returns delivery statistics for a node ID (zero Stats if the
// node is unknown).
func (n *SimNet) Stats(id string) Stats {
	n.mu.Lock()
	c, ok := n.nodes[id]
	n.mu.Unlock()
	if !ok {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close detaches every node.  On a wall clock it waits for in-flight
// deliveries; on a virtual clock pending deliveries still on the heap
// become no-ops.
func (n *SimNet) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	conns := append([]*simConn(nil), n.order...)
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
}

// delivery is one packet arrival.  It implements clock.Event directly
// so a virtual-clock delivery costs a single allocation.
type delivery struct {
	dst     *simConn
	from    string
	data    []byte
	unicast bool
}

// Fire implements clock.Event.
func (d *delivery) Fire(now time.Time) {
	d.dst.deliver(Packet{From: d.from, Data: d.data, Unicast: d.unicast, At: now})
}

// arrival is a wall-clock delivery planned under the lock and carried
// out after it is released.
type arrival struct {
	dst    *simConn
	copies int
	delay  time.Duration
}

// send applies the link model to one frame from src, toward node to
// (unicast) or every other node (multicast), and delivers or schedules
// the result.  Caller holds no locks.
func (n *SimNet) send(src *simConn, to string, frame []byte, unicast bool) error {
	data := append([]byte(nil), frame...)
	var drops []string
	var buf [16]arrival
	pend := buf[:0]

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	dsts := n.order
	if unicast {
		dst, ok := n.nodes[to]
		if !ok {
			n.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrUnknownNode, to)
		}
		dsts = []*simConn{dst}
	}
	trace := n.trace.Load()
	now := n.clk.Now()
	for _, dst := range dsts {
		if dst == src && !unicast {
			continue
		}
		key := linkKey{src.id, dst.id}
		l := n.linkLocked(src.id, dst.id)
		plan := planLink(l, len(data), n.rng, n.linkBusy[key], now)
		if l.BandwidthBps > 0 {
			n.linkBusy[key] = plan.busy
		}
		if plan.drop {
			dst.mu.Lock()
			dst.stats.Dropped++
			dst.mu.Unlock()
			if trace != nil {
				drops = append(drops, dst.id)
			}
			continue
		}
		if n.vclk == nil {
			n.wg.Add(plan.copies)
			pend = append(pend, arrival{dst: dst, copies: plan.copies, delay: plan.delay})
			continue
		}
		for i := 0; i < plan.copies; i++ {
			n.vclk.Schedule(plan.delay, &delivery{dst: dst, from: src.id, data: data, unicast: unicast})
		}
	}
	n.mu.Unlock()

	for _, id := range drops {
		(*trace)(TraceEvent{AtNS: now.UnixNano(), From: src.id, To: id, Kind: TraceDrop,
			Size: len(data), Unicast: unicast})
	}
	for _, a := range pend {
		d := delivery{dst: a.dst, from: src.id, data: data, unicast: unicast}
		for i := 0; i < a.copies; i++ {
			if a.delay <= 0 {
				d.Fire(now)
				n.wg.Done()
				continue
			}
			n.clk.AfterFunc(a.delay, func() {
				defer n.wg.Done()
				d.Fire(n.clk.Now())
			})
		}
	}
	return nil
}

// simConn is a node's attachment to a SimNet.
type simConn struct {
	net     *SimNet
	id      string
	handler func(Packet) // nil = inbox mode
	inbox   chan Packet  // nil = handler mode

	mu     sync.Mutex
	closed bool
	stats  Stats
}

// ID implements Conn.
func (c *simConn) ID() string { return c.id }

// Recv implements Conn.  Handler-mode nodes return nil: their packets
// go to the handler, and ranging over a nil channel blocks forever —
// do not start a receive loop on a handler-mode Conn.
func (c *simConn) Recv() <-chan Packet { return c.inbox }

// Multicast implements Conn.
func (c *simConn) Multicast(frame []byte) error {
	if err := c.checkSend(frame); err != nil {
		return err
	}
	return c.net.send(c, "", frame, false)
}

// Unicast implements Conn.
func (c *simConn) Unicast(to string, frame []byte) error {
	if err := c.checkSend(frame); err != nil {
		return err
	}
	return c.net.send(c, to, frame, true)
}

func (c *simConn) checkSend(frame []byte) error {
	if len(frame) > c.net.mtu {
		return fmt.Errorf("%w: %d > %d", ErrFrameSize, len(frame), c.net.mtu)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.stats.Sent++
	return nil
}

// deliver hands a packet to the node: into its inbox (dropping on
// overflow) or to its handler.
func (c *simConn) deliver(p Packet) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	kind := TraceDeliver
	if c.handler != nil {
		c.stats.Delivered++
		c.stats.Bytes += uint64(len(p.Data))
	} else {
		select {
		case c.inbox <- p:
			c.stats.Delivered++
			c.stats.Bytes += uint64(len(p.Data))
		default:
			c.stats.Overflow++
			kind = TraceOverflow
		}
	}
	c.mu.Unlock()
	if trace := c.net.trace.Load(); trace != nil {
		(*trace)(TraceEvent{AtNS: p.At.UnixNano(), From: p.From, To: c.id,
			Kind: kind, Size: len(p.Data), Unicast: p.Unicast})
	}
	if c.handler != nil {
		c.handler(p)
	}
}

// Close implements Conn.
func (c *simConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()

	n := c.net
	n.mu.Lock()
	delete(n.nodes, c.id)
	if i := n.indexLocked(c.id); i < len(n.order) && n.order[i] == c {
		n.order = append(n.order[:i], n.order[i+1:]...)
	}
	// Purge the detached node's serialization state: linkBusy entries
	// are keyed per directed pair and would otherwise accumulate
	// forever under attach/detach churn.
	for k := range n.linkBusy {
		if k.from == c.id || k.to == c.id {
			delete(n.linkBusy, k)
		}
	}
	n.mu.Unlock()
	if c.inbox != nil {
		close(c.inbox)
	}
	return nil
}
