package main

import (
	"sync/atomic"
	"time"

	"adaptiveqos/internal/core"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/radio"
)

// pollInterval is the poller's sleep between sweeps of every
// receiver's application state; the achieved sweep period is reported
// as the delivery-poll resolution.
const pollInterval = 200 * time.Microsecond

// adaptEvery is how often, in schedule time, hostRamp workloads step
// every wired host and run AdaptOnce.
const adaptEvery = 100 * time.Millisecond

// drainTimeout bounds the wait for the last deliveries of a phase.
const drainTimeout = 30 * time.Second

// fenceEvery paces the fences a repair workload publishes while it
// drains: a fence addresses no team, so receivers drop it after its
// sequence number has revealed any lost tail frames to gap repair.
const fenceEvery = 20 * time.Millisecond

const fenceText = "#F fence"

// windowLen splits the measured phase by due time: latency quantiles
// are taken per window and reported as the median across windows, so
// one stall (a GC cycle, a descheduled vCPU) moves one window, not the
// result.
const windowLen = time.Second

// epoch anchors every timestamp the benchmark records.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// watch is the poller's view of one receiver.
type watch struct {
	c                           *core.Client
	chatSeen, wbSeen, inboxSeen []int64 // when each position first appeared
	viewerSeen                  []int64 // by item id: when complete; -1 = announced, 0 = neither
	pending                     []*item // images expected in the viewer, not yet complete
	announced                   int     // announces matched to a pending image
	wantChat, wantWb, wantInbox int     // expected from others, items published so far
}

// harness drives one topology: the generator runs on the caller's
// goroutine, the poller on one more.
type harness struct {
	t     *topology
	rec   *recorder
	items []item  // warm then measured; item id = index + 1
	due   []int64 // absolute due time per item, set when its phase starts
	w     []*watch

	published atomic.Int64   // items handed to the program
	ownChat   []atomic.Int64 // lines each client published (items and fences)
	ownWb     []atomic.Int64 // strokes each client published
	covered   atomic.Int64   // items whose every expected delivery is visible
	cursor    int            // poller: items folded into the targets
	sweeps    int64          // poller: sweeps made
	sweepNS   int64          // poller: time spanned by those sweeps
	late      []int64        // generator lateness per measured item
	budgetChg int            // packet-budget changes seen by AdaptOnce
	fences    int
}

func newHarness(t *topology, rec *recorder) *harness {
	in := t.in
	items := make([]item, 0, len(in.warm)+len(in.measured))
	items = append(items, in.warm...)
	items = append(items, in.measured...)
	n := len(t.clients)
	s := &harness{t: t, rec: rec, items: items, due: make([]int64, len(items)+1),
		ownChat: make([]atomic.Int64, n), ownWb: make([]atomic.Int64, n)}
	// Size every per-receiver record up front so the poller does not
	// allocate while the program is measured.
	for r, c := range t.clients {
		w := &watch{c: c}
		var chat, wb, inbox int
		for i := range items {
			it := &items[i]
			switch {
			case it.sender == r && it.kind == kindChat:
				chat++
			case it.sender == r && it.kind == kindStroke:
				wb++
			case !t.receives(it, r):
			case it.kind == kindChat:
				chat++
			case it.kind == kindStroke:
				wb++
			case it.kind == kindImage && t.tierFor(it.sender, r) != radio.TierImage:
				inbox++
			}
		}
		const slack = 4096 // fences, and anything unexpected
		w.chatSeen = make([]int64, 0, chat+slack)
		w.wbSeen = make([]int64, 0, wb+slack)
		w.inboxSeen = make([]int64, 0, inbox+slack)
		if in.spec.images {
			w.viewerSeen = make([]int64, len(items)+1)
			w.pending = make([]*item, 0, 256)
		}
		s.w = append(s.w, w)
	}
	s.late = make([]int64, 0, len(in.measured))
	return s
}

// sweep folds newly published items into the targets, records when
// each receiver's state grew, and publishes whether every expected
// delivery is visible.
func (s *harness) sweep() {
	now := nowNS()
	pub := int(s.published.Load())
	for ; s.cursor < pub; s.cursor++ {
		it := &s.items[s.cursor]
		for r, w := range s.w {
			if !s.t.receives(it, r) {
				continue
			}
			switch {
			case it.kind == kindChat:
				w.wantChat++
			case it.kind == kindStroke:
				w.wantWb++
			case s.t.tierFor(it.sender, r) == radio.TierImage:
				w.pending = append(w.pending, it)
			default:
				w.wantInbox++
			}
		}
	}
	all := true
	for r, w := range s.w {
		for n := w.c.Chat().Len(); len(w.chatSeen) < n; {
			w.chatSeen = append(w.chatSeen, now)
		}
		for n := w.c.Whiteboard().Len(); len(w.wbSeen) < n; {
			w.wbSeen = append(w.wbSeen, now)
		}
		for n := w.c.Inbox().Len(); len(w.inboxSeen) < n; {
			w.inboxSeen = append(w.inboxSeen, now)
		}
		// Stats allocates an error for an image whose announce has
		// not landed, so the poller looks an unconfirmed image up only
		// while the receiver has applied more announces than it has
		// matched to pending images.  On image workloads an accepted
		// event is an announce or an inbox object; the event count
		// rises after the state applies and is read first, so the
		// difference never runs ahead of the announces applied.
		// Announces land mostly in publish order, the order pending is
		// scanned in.
		unmatched := 0
		if len(w.pending) > 0 {
			unmatched = int(w.c.Stats().EventsReceived) - w.c.Inbox().Len() - w.announced
		}
		keep := w.pending[:0]
		for _, it := range w.pending {
			if w.viewerSeen[it.id] == 0 && unmatched <= 0 {
				keep = append(keep, it)
				continue
			}
			st, err := w.c.Viewer().Stats(it.object)
			if err != nil {
				keep = append(keep, it)
				continue
			}
			if w.viewerSeen[it.id] == 0 {
				w.viewerSeen[it.id] = -1
				w.announced++
				unmatched--
			}
			if st.PacketsReceived == st.TotalPackets {
				w.viewerSeen[it.id] = now
				continue
			}
			keep = append(keep, it)
		}
		w.pending = keep
		if len(w.chatSeen) < int(s.ownChat[r].Load())+w.wantChat ||
			len(w.wbSeen) < int(s.ownWb[r].Load())+w.wantWb ||
			len(w.inboxSeen) < w.wantInbox || len(w.pending) > 0 {
			all = false
		}
	}
	if all {
		s.covered.Store(int64(pub))
	}
}

// poll sweeps until stop closes, then sweeps once more.
func (s *harness) poll(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	first := nowNS()
	for {
		select {
		case <-stop:
			s.sweep()
			s.sweeps++
			s.sweepNS += nowNS() - first
			return
		default:
		}
		s.sweep()
		s.sweeps++
		time.Sleep(pollInterval)
	}
}

// phase publishes items [from, to) open loop at their due times, then
// waits until every expected delivery is visible or drainTimeout
// passes; the oracle reports anything still missing.
func (s *harness) phase(from, to int, measured bool) error {
	stop, done := make(chan struct{}), make(chan struct{})
	go s.poll(stop, done)
	defer func() { close(stop); <-done }()

	start := nowNS()
	for i := from; i < to; i++ {
		s.due[s.items[i].id] = start + int64(s.items[i].due)
	}
	nextAdapt := time.Duration(0)
	for i := from; i < to; i++ {
		it := &s.items[i]
		due := s.due[it.id]
		if d := due - nowNS(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if measured {
			s.late = append(s.late, nowNS()-due)
		}
		if s.t.in.spec.hostRamp && it.due >= nextAdapt {
			if err := s.adapt(); err != nil {
				return err
			}
			nextAdapt += adaptEvery
		}
		if err := s.publish(it); err != nil {
			return err
		}
		s.published.Store(int64(i + 1))
	}

	deadline := nowNS() + int64(drainTimeout)
	nextFence := nowNS()
	for s.covered.Load() < int64(to) && nowNS() < deadline {
		if s.t.in.spec.repair && nowNS() >= nextFence {
			if err := s.fence(); err != nil {
				return err
			}
			nextFence += int64(fenceEvery)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (s *harness) publish(it *item) error {
	t := s.t
	c := t.clients[it.sender]
	switch it.kind {
	case kindChat:
		// Own counts rise before the local apply, so the poller's
		// targets never trail what it can see.
		s.ownChat[it.sender].Add(1)
		return s.rec.call(layerCore, spanPublish, it.id, t.conns[it.sender], func() error {
			return c.Say(it.text, it.sel)
		})
	case kindStroke:
		s.ownWb[it.sender].Add(1)
		return s.rec.call(layerCore, spanPublish, it.id, t.conns[it.sender], func() error {
			return c.Draw(it.stroke, it.sel)
		})
	}
	// Image shares encode at publish time, as cmd/collab does.
	var obj *media.Object
	if err := s.rec.call(layerMedia, spanEncode, it.id, nil, func() (err error) {
		obj, err = media.EncodeImage(t.in.images[it.image], it.desc)
		return err
	}); err != nil {
		return err
	}
	if t.isWired(it.sender) {
		return s.rec.call(layerCore, spanPublish, it.id, t.conns[it.sender], func() error {
			return c.ShareImage(it.object, obj, "")
		})
	}
	// core.Client has no media uplink call: a wireless share enters
	// the session through the base station's uplink entry point.
	return s.rec.call(layerBaseStation, spanUplinkShare, it.id, nil, func() error {
		return t.bs.UplinkShare(c.ID(), it.object, "", obj)
	})
}

// adapt steps every wired host's load ramp and runs one adaptation
// cycle per wired client.
func (s *harness) adapt() error {
	t := s.t
	for i, h := range t.hosts {
		h.Step()
		var budget int
		if err := s.rec.call(layerInference, spanAdapt, -1, nil, func() error {
			d, err := t.clients[i].AdaptOnce()
			budget = d.EffectiveBudget(16)
			return err
		}); err != nil {
			return err
		}
		if budget != t.budgets[i] {
			s.budgetChg++
			t.budgets[i] = budget
		}
	}
	return nil
}

// fence publishes one line nobody is addressed by, from the next wired
// sender in turn.
func (s *harness) fence() error {
	r := s.fences % s.t.in.spec.wired
	s.fences++
	s.ownChat[r].Add(1)
	return s.t.clients[r].Say(fenceText, `team == "none"`)
}

// pollPeriodUS is the mean time between poller sweeps.
func (s *harness) pollPeriodUS() float64 {
	if s.sweeps == 0 {
		return 0
	}
	return float64(s.sweepNS) / float64(s.sweeps) / 1e3
}
