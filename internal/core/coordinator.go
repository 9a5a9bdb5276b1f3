package core

import (
	"math"
	"slices"
	"sync"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
)

// Coordinator is an archiving peer in the multicast session: it
// records every event frame in order and answers history requests from
// late joiners by replaying the original frames over unicast.  The
// framework deliberately has no store-and-forward in the live path
// (collaboration is real-time); the archive is the paper's concession
// for late clients needing session history.
//
// Replayed frames are verbatim originals, so the late joiner's own
// semantic filtering still applies: it only absorbs the history its
// profile admits.
type Coordinator struct {
	conn transport.Conn
	clk  clock.Clock
	sess *session.Session

	env    message.Enveloper
	unwrap *message.Unwrapper

	mu      sync.Mutex
	streams map[string]*senderStream // per-sender arrival reordering
	locks   *session.ObjectLocks     // distributed lock arbitration

	closeOnce sync.Once
	loopDone  chan struct{}
}

// Control-message vocabulary for the history protocol.
const (
	attrCtrl       = "ctrl"
	ctrlHistoryReq = "history-request"
	attrAfterSeq   = "after-seq"
	// attrForSender scopes a history request to one sender's frames,
	// with attrAfterSeq then counted in that sender's own sequence
	// space — the NACK a gap-repair loop issues.
	attrForSender = "for-sender"
)

// NewCoordinator attaches an archiving coordinator to the substrate.
// group describes the session being archived (used for metadata only;
// the coordinator does not enforce admission — it archives what the
// multicast group carries).
func NewCoordinator(conn transport.Conn, group session.Group) *Coordinator {
	return NewCoordinatorClock(conn, group, nil)
}

// NewCoordinatorClock is NewCoordinator with an injected clock (nil =
// wall) timestamping replies and replay notifications.
func NewCoordinatorClock(conn transport.Conn, group session.Group, clk clock.Clock) *Coordinator {
	c := &Coordinator{
		conn:     conn,
		clk:      clock.Or(clk),
		sess:     session.New(group),
		unwrap:   message.NewUnwrapper(),
		streams:  make(map[string]*senderStream),
		locks:    session.NewObjectLocks(),
		loopDone: make(chan struct{}),
	}
	c.env.Node = conn.ID()
	c.unwrap.Node = conn.ID()
	go c.loop()
	return c
}

// ID returns the coordinator's substrate identifier.
func (c *Coordinator) ID() string { return c.conn.ID() }

// Session exposes the archive (membership, history, sequence state).
func (c *Coordinator) Session() *session.Session { return c.sess }

// SetArchiveCap bounds retained history to the most recent n events
// (0 = unlimited, the default).
func (c *Coordinator) SetArchiveCap(n int) { c.sess.SetArchiveCap(n) }

// Close detaches the coordinator.
func (c *Coordinator) Close() error {
	var err error
	c.closeOnce.Do(func() {
		err = c.conn.Close()
		<-c.loopDone
	})
	return err
}

func (c *Coordinator) loop() {
	defer close(c.loopDone)
	for pkt := range c.conn.Recv() {
		c.handle(pkt)
	}
}

func (c *Coordinator) handle(pkt transport.Packet) {
	frame, err := c.unwrap.Unwrap(pkt.From, pkt.Data)
	if err != nil || frame == nil {
		return
	}
	m, err := message.Decode(frame)
	if err != nil {
		return
	}
	switch m.Kind {
	case message.KindEvent, message.KindData:
		// The substrate may reorder frames; the archive must reflect
		// each sender's causal order, so frames pass through a
		// per-sender reorder stage keyed on the sender sequence number.
		for _, ev := range c.reorder(m, frame) {
			c.archive(ev)
		}
	case message.KindControl:
		ctrl, ok := m.Attr(attrCtrl)
		if !ok {
			return
		}
		switch ctrl.Str() {
		case ctrlHistoryReq:
			forSender, scoped := m.Attr(attrForSender)
			if after, ok := historyAfter(m, scoped); ok && scoped {
				c.replayFor(m.Sender, forSender.Str(), uint32(after))
			} else if ok {
				c.replay(m.Sender, after)
			}
		case ctrlLockRequest, ctrlLockRelease:
			if object, ok := m.Attr(attrObject); ok {
				c.handleLock(m.Sender, ctrl.Str(), object.Str())
			}
		}
	}
}

// historyAfter reads a history request's after-seq (absent = 0).  A
// value that is not a whole number the sequence space can hold —
// NaN, negative, fractional, or past MaxUint32 for a sender-scoped
// request (MaxUint64 otherwise) — rejects the request.
func historyAfter(m *message.Message, senderScoped bool) (uint64, bool) {
	v, ok := m.Attr(attrAfterSeq)
	n, bound := v.Num(), 0x1p64
	if senderScoped {
		bound = 0x1p32
	}
	if ok && (v.Kind() != selector.KindNumber || !(n >= 0 && n < bound) || n != math.Trunc(n)) {
		return 0, false
	}
	return uint64(n), true
}

// handleLock arbitrates a lock request or release and notifies the
// affected clients.
func (c *Coordinator) handleLock(sender, ctrl, object string) {
	switch ctrl {
	case ctrlLockRequest:
		if err := c.locks.TryAcquire(object, sender); err != nil {
			c.notifyLock(sender, ctrlLockWait, object, c.locks.Holder(object))
			return
		}
		c.notifyLock(sender, ctrlLockGrant, object, sender)
	case ctrlLockRelease:
		next, err := c.locks.Release(object, sender)
		if err != nil {
			return // not the holder: ignore
		}
		if next != "" {
			c.notifyLock(next, ctrlLockGrant, object, next)
		}
	}
}

func (c *Coordinator) notifyLock(to, ctrl, object, holder string) {
	m := &message.Message{
		Kind:      message.KindControl,
		Sender:    c.ID(),
		Timestamp: c.clk.Now(),
		Attrs: selector.Attributes{
			attrCtrl:   selector.S(ctrl),
			attrObject: selector.S(object),
			attrHolder: selector.S(holder),
		},
	}
	frame, err := message.Encode(m)
	if err != nil {
		return
	}
	datagrams, err := c.env.Wrap(frame)
	if err != nil {
		return
	}
	for _, d := range datagrams {
		c.conn.Unicast(to, d)
	}
}

// senderStream restores one sender's frame order before archival.
type senderStream struct {
	buf *session.OrderBuffer
	// missing holds, ascending, the seqs the flush path skipped past
	// without archiving: a straggler carrying one of them is genuine
	// lost history and archives once; any other seq below the buffer's
	// next is a duplicate delivery of an already-archived frame and is
	// dropped.
	missing []uint32
}

// maxStreamPending bounds per-sender buffering; past it the stream
// flushes in ascending order (archive completeness beats a perfect
// order when the substrate genuinely lost a frame).
const maxStreamPending = 64

// maxStreamMissing bounds the skipped-seq memory per sender; past it
// the oldest (smallest) entries give way and an extremely late
// straggler is treated as a duplicate — the archive-safe direction.
const maxStreamMissing = 1024

// noteMissing records [from, to) as skipped without archiving.  Skips
// only move forward, so appending keeps missing ascending and the
// oldest entries are its prefix.
func (st *senderStream) noteMissing(from, to uint64) {
	if to-from > maxStreamMissing {
		from = to - maxStreamMissing
	}
	for s := from; s < to; s++ {
		st.missing = append(st.missing, uint32(s))
	}
	if over := len(st.missing) - maxStreamMissing; over > 0 {
		st.missing = st.missing[over:]
	}
}

// reorder returns the events now releasable in the sender's order,
// each carrying its original frame and sender seq.
func (c *Coordinator) reorder(m *message.Message, frame []byte) []session.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.streams[m.Sender]
	if !ok {
		// Framework clients number their messages from 1, so a fresh
		// stream anchors there; a coordinator attaching mid-session
		// catches up through the flush path below.
		st = &senderStream{buf: session.NewOrderBuffer(0)}
		st.buf.SetClock(c.clk)
		c.streams[m.Sender] = st
	}
	app, _ := m.Attr(message.AttrApp)
	object, _ := m.Attr(message.AttrObject)
	ev := session.Event{Seq: uint64(m.Seq), SenderSeq: m.Seq, Sender: m.Sender,
		App: app.Str(), Object: object.Str(), Payload: frame}
	if next, _ := st.buf.Gap(); ev.Seq < next {
		if i, lost := slices.BinarySearch(st.missing, m.Seq); lost {
			// A straggler the flush path skipped past: genuine lost
			// history, archive it now (exactly once).
			st.missing = slices.Delete(st.missing, i, i+1)
			return []session.Event{ev}
		}
		// Duplicate delivery of an already-archived frame: committing
		// it again would mint a second session event.
		metrics.C(metrics.CtrArchiveDupDrops).Inc()
		if obs.Enabled() {
			obs.Drop(obs.MsgID(m.Sender, m.Seq), obs.StageReorder,
				c.ID()+": duplicate frame from "+m.Sender+" dropped before archive")
		}
		return nil
	}
	out := st.buf.Push(ev)
	if _, parked := st.buf.Gap(); parked > maxStreamPending {
		// Flush: a frame was probably lost.  Release everything parked
		// in ascending order, remembering the skipped seqs as
		// repairable holes.
		for parked > 0 {
			released, from, to := st.buf.Skip()
			st.noteMissing(from, to)
			out = append(out, released...)
			_, parked = st.buf.Gap()
		}
	}
	return out
}

// archive commits a released event (the session copies its frame).
func (c *Coordinator) archive(ev session.Event) {
	// The session requires membership for Commit; the coordinator
	// auto-registers senders it hears (they are in the multicast group
	// by construction).
	if !c.sess.IsMember(ev.Sender) {
		if err := c.sess.Join(profile.New(ev.Sender)); err != nil {
			return // filtered by the group: not archived
		}
	}
	if _, err := c.sess.CommitEvent(ev); err != nil {
		return
	}
	obs.AppendHop(obs.MsgID(ev.Sender, ev.SenderSeq), c.ID(), obs.StageArchive)
}

// replay unicasts archived frames with Seq > after, in session order.
func (c *Coordinator) replay(to string, after uint64) {
	c.unicastFrames(to, c.sess.History(after))
}

// replayFor answers a NACK-style repair request: it unicasts the
// archived frames originated by sender whose sender-scoped sequence
// number exceeds afterSenderSeq, in ascending sender-seq order.
// Repeated requests with an advancing afterSenderSeq resume where the
// previous replay left off, and requests for already-delivered ranges
// are harmless — the requester's order buffer discards what it has
// already applied.
func (c *Coordinator) replayFor(to, sender string, afterSenderSeq uint32) {
	c.unicastFrames(to, c.sess.SenderHistory(sender, afterSenderSeq))
}

// unicastFrames ships archived frames, appending a repair hop to each
// message's trace and re-attaching the trace extension so the
// requester sees the replay on the message's original timeline.
func (c *Coordinator) unicastFrames(to string, events []session.Event) {
	for _, ev := range events {
		traceID := obs.MsgID(ev.Sender, ev.SenderSeq)
		obs.AppendHop(traceID, c.ID(), obs.StageRepair)
		var datagrams [][]byte
		var err error
		if obs.TraceEnabled() {
			datagrams, err = c.env.WrapTraced(ev.Payload, traceID)
		} else {
			datagrams, err = c.env.Wrap(ev.Payload)
		}
		if err != nil {
			return
		}
		for _, d := range datagrams {
			if err := c.conn.Unicast(to, d); err != nil {
				return
			}
		}
	}
}

// ArchivedEvents returns the number of archived events.
func (c *Coordinator) ArchivedEvents() int { return c.sess.Archived() }

// RequestHistory asks the coordinator to replay the session history
// with sequence numbers greater than afterSeq.  Replayed events arrive
// through the normal receive path, subject to this client's semantic
// filtering.
func (c *Client) RequestHistory(coordinator string, afterSeq uint64) error {
	m := &message.Message{
		Kind:      message.KindControl,
		Sender:    c.ID(),
		Seq:       c.ctrlSeq.Add(1),
		Timestamp: c.clk.Now(),
		Attrs: selector.Attributes{
			attrCtrl:     selector.S(ctrlHistoryReq),
			attrAfterSeq: selector.N(float64(afterSeq)),
		},
	}
	return c.unicastMessage(coordinator, m)
}

// RequestHistoryFrom asks the coordinator to replay one sender's
// archived frames with sender-scoped sequence numbers greater than
// afterSeq — the NACK the gap-repair loop issues when that sender's
// event stream stalls on a missing frame.  Replayed frames arrive
// through the normal receive path and are deduplicated against
// already-applied sequence numbers by the per-sender order buffer.
func (c *Client) RequestHistoryFrom(coordinator, sender string, afterSeq uint64) error {
	m := &message.Message{
		Kind:      message.KindControl,
		Sender:    c.ID(),
		Seq:       c.ctrlSeq.Add(1),
		Timestamp: c.clk.Now(),
		Attrs: selector.Attributes{
			attrCtrl:      selector.S(ctrlHistoryReq),
			attrForSender: selector.S(sender),
			attrAfterSeq:  selector.N(float64(afterSeq)),
		},
	}
	return c.unicastMessage(coordinator, m)
}
