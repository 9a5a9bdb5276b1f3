package replay

import (
	"encoding/binary"
	"sort"
	"time"

	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/repair"
	"adaptiveqos/internal/timeline"
	"adaptiveqos/internal/transport"
)

// SimConfig sets the replayed network's link model and seed.  The same
// (workload, policy, config) triple always produces the same Outcome:
// the rerun is single-threaded on a virtual clock, every random draw
// is seeded, and every fan-out and poll iterates in sorted order.
type SimConfig struct {
	// Seed drives the network's loss/jitter draws and the repair
	// engines' backoff jitter (0 means 1).
	Seed int64
	// Delay is the fixed one-way link delay (default 5ms).
	Delay time.Duration
	// Jitter adds uniform random delay in [0, Jitter] on lossy links.
	Jitter time.Duration
	// Loss is the per-frame loss probability on client↔client links; a
	// negative value means "use the workload's recorded mean loss".
	// Links to the replay coordinator are always clean, mirroring the
	// live deployment's wired coordinator.
	Loss float64
	// CurveWindows, when > 0, attaches per-window metric curves to the
	// Outcome: the recorded span splits into this many timeline windows
	// (plus one drain-tail window), each carrying delivery/repair deltas
	// and windowed latency quantiles.
	CurveWindows int
}

func (c SimConfig) withDefaults(w *Workload) SimConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Delay <= 0 {
		c.Delay = 5 * time.Millisecond
	}
	if c.Loss < 0 {
		c.Loss = w.MeanLoss
	}
	if c.Loss > 1 {
		c.Loss = 1
	}
	return c
}

// Outcome is one policy's measured rerun.
type Outcome struct {
	Policy Policy `json:"policy"`

	// Offered counts the workload's publish frames; Sent those that
	// survived the candidate inference budget; Truncated the rest.
	Offered   int `json:"offered"`
	Sent      int `json:"sent"`
	Truncated int `json:"truncated"`

	// Expected is sent frames × reachable receivers; Delivered counts
	// in-order deliveries (gap-repaired and abandon-drained included);
	// Abandoned counts gaps given up on.
	Expected  int `json:"expected"`
	Delivered int `json:"delivered"`
	Abandoned int `json:"abandoned"`

	// LossFrac is the post-repair fraction of expected deliveries that
	// never happened.
	LossFrac float64 `json:"loss_frac"`

	// Byte accounting: original data, coordinator repair replays, and
	// NACK control traffic.
	DataBytes   uint64 `json:"data_bytes"`
	RepairBytes uint64 `json:"repair_bytes"`
	NackBytes   uint64 `json:"nack_bytes"`

	// RepairRequests counts NACKs issued; Repaired gaps closed after
	// at least one request.
	RepairRequests int `json:"repair_requests"`
	Repaired       int `json:"repaired"`

	// DeliveryNS holds every in-order delivery latency (publish to
	// in-order arrival, virtual ns), sorted; ConvergeNS every repaired
	// gap's stall-to-fill latency, sorted.
	DeliveryNS []int64 `json:"-"`
	ConvergeNS []int64 `json:"-"`

	// DeliveryP99 and ConvergeP99 summarize the samples above.
	DeliveryP99 time.Duration `json:"delivery_p99_ns"`
	ConvergeP99 time.Duration `json:"converge_p99_ns"`

	// Curve holds the per-window metric series when
	// SimConfig.CurveWindows > 0 — how this candidate's delivery, repair
	// traffic and latency evolved across the replayed span.
	Curve []timeline.SeriesData `json:"curve,omitempty"`
}

// Frame wire format (replay-internal).
const (
	frameData byte = 1
	frameNack byte = 2

	// Data header: type, seq, sentNS, level, senderLen, sender bytes.
	// The stream sender rides in the frame — a coordinator replay
	// arrives with Packet.From = coordinator, and the receiver must
	// still credit the original stream.
	dataHeaderLen = 1 + 8 + 8 + 1 + 1
	// maxReplayPerNack bounds one NACK's replay burst; the engine's
	// retry budget covers longer runs of loss.
	maxReplayPerNack = 16
)

func encodeData(sender string, seq uint64, sentNS int64, level, size int) []byte {
	if size < dataHeaderLen+len(sender) {
		size = dataHeaderLen + len(sender)
	}
	buf := make([]byte, size)
	buf[0] = frameData
	binary.BigEndian.PutUint64(buf[1:], seq)
	binary.BigEndian.PutUint64(buf[9:], uint64(sentNS))
	buf[17] = byte(level)
	buf[18] = byte(len(sender))
	copy(buf[19:], sender)
	return buf
}

func decodeData(buf []byte) (sender string, seq uint64, sentNS int64) {
	seq = binary.BigEndian.Uint64(buf[1:])
	sentNS = int64(binary.BigEndian.Uint64(buf[9:]))
	sender = string(buf[19 : 19+int(buf[18])])
	return
}

func encodeNack(stream string, afterSeq uint64) []byte {
	buf := make([]byte, 1+8+len(stream))
	buf[0] = frameNack
	binary.BigEndian.PutUint64(buf[1:], afterSeq)
	copy(buf[9:], stream)
	return buf
}

// tracker is one receiver's per-sender stream state: the minimal
// OrderBuffer shape the repair engine needs (repair.Stream) plus
// delivery accounting.  Loss and latency are counted at unique
// arrival — the RTP semantics the recorded rtp_loss_fraction gauges
// use — while the next/parked ordering state exists to detect gaps
// for the repair engine.
type tracker struct {
	next     uint64          // first seq not yet passed in order (the gap pointer)
	parked   map[uint64]bool // arrived out-of-order seqs > next
	gapSince int64           // virtual ns the current gap opened; 0 = none

	out *Outcome
	lat *obs.Histogram // optional: windowed delivery latency for curves
}

func newTracker(out *Outcome, lat *obs.Histogram) *tracker {
	return &tracker{next: 1, parked: make(map[uint64]bool), out: out, lat: lat}
}

// Gap implements repair.Stream.
func (t *tracker) Gap() (uint64, int) { return t.next, len(t.parked) }

// accept processes one arriving frame.
func (t *tracker) accept(seq uint64, sentNS int64, now time.Time) {
	if seq < t.next || t.parked[seq] {
		return // duplicate (or a replay of an already-abandoned seq)
	}
	t.out.Delivered++
	t.out.DeliveryNS = append(t.out.DeliveryNS, now.UnixNano()-sentNS)
	if t.lat != nil {
		t.lat.Observe(now.UnixNano() - sentNS)
	}
	if seq > t.next {
		t.parked[seq] = true
		if t.gapSince == 0 {
			t.gapSince = now.UnixNano()
		}
		return
	}
	t.next = seq + 1
	t.advance(now)
}

// advance walks the gap pointer over contiguously arrived seqs and
// refreshes the gap bookkeeping.
func (t *tracker) advance(now time.Time) {
	for t.parked[t.next] {
		delete(t.parked, t.next)
		t.next++
	}
	if len(t.parked) == 0 {
		t.gapSince = 0
	} else if t.gapSince == 0 {
		t.gapSince = now.UnixNano()
	}
}

// skipPast abandons the gap at waitingFor: ordering resumes beyond it
// (the lost frame stays undelivered — abandonment trades completeness
// for liveness, it does not conjure data).
func (t *tracker) skipPast(waitingFor uint64, now time.Time) {
	if t.next <= waitingFor {
		t.next = waitingFor + 1
	}
	t.advance(now)
}

// Simulate reruns the workload under one candidate policy and returns
// the measured outcome.
func Simulate(w *Workload, pol Policy, cfg SimConfig) Outcome {
	pol = pol.withDefaults()
	cfg = cfg.withDefaults(w)
	out := Outcome{Policy: pol, Offered: len(w.Publishes)}

	const coordID = "\x00replay-coord" // NUL prefix: can't collide with client IDs
	clk := clock.NewVirtual(time.Unix(0, w.StartNS))
	net := transport.NewSimNet(transport.SimNetConfig{
		Seed:        cfg.Seed,
		DefaultLink: transport.Link{Delay: cfg.Delay, Jitter: cfg.Jitter, Loss: cfg.Loss},
		MTU:         1 << 22,
		Clock:       clk,
	})
	defer net.Close()

	// Candidate curves: derived delta series over the Outcome's own
	// accounting plus a windowed latency histogram.  Boundary SampleNow
	// events are scheduled before any workload event, so window closes
	// deterministically precede same-instant traffic.
	var tl *timeline.Timeline
	var lat *obs.Histogram
	if cfg.CurveWindows > 0 {
		lat = &obs.Histogram{}
		span := time.Duration(w.EndNS - w.StartNS)
		window := span / time.Duration(cfg.CurveWindows)
		if window <= 0 {
			window = time.Millisecond
		}
		tl = timeline.New(timeline.Config{
			Window:    window,
			Retention: cfg.CurveWindows + 1, // +1: the drain-tail window
			Clock:     clk,
		})
		delta := func(get func() int) func() float64 {
			prev := 0
			return func() float64 {
				cur := get()
				d := cur - prev
				prev = cur
				return float64(d)
			}
		}
		tl.TrackFunc("replay_sent", delta(func() int { return out.Sent }))
		tl.TrackFunc("replay_delivered", delta(func() int { return out.Delivered }))
		tl.TrackFunc("replay_expected", delta(func() int { return out.Expected }))
		tl.TrackFunc("replay_truncated", delta(func() int { return out.Truncated }))
		tl.TrackFunc("replay_repair_requests", delta(func() int { return out.RepairRequests }))
		tl.TrackFunc("replay_abandoned", delta(func() int { return out.Abandoned }))
		tl.TrackHistogram("replay_delivery_latency_ns", lat)
		for i := 1; i <= cfg.CurveWindows; i++ {
			at := time.Duration(int64(i) * int64(span) / int64(cfg.CurveWindows))
			clk.ScheduleFunc(at, func(time.Time) { tl.SampleNow() })
		}
	}

	receiverSet := make(map[string]bool, len(w.Receivers))
	for _, id := range w.Receivers {
		receiverSet[id] = true
	}

	// Coordinator: archives every data frame off the multicast, answers
	// NACKs with bounded unicast replays over its clean links.
	archive := make(map[string]map[uint64][]byte) // stream → seq → frame
	var coordConn transport.Conn
	coordHandler := func(p transport.Packet) {
		switch p.Data[0] {
		case frameData:
			sender, seq, _ := decodeData(p.Data)
			byStream := archive[sender]
			if byStream == nil {
				byStream = make(map[uint64][]byte)
				archive[sender] = byStream
			}
			byStream[seq] = p.Data
		case frameNack:
			afterSeq := binary.BigEndian.Uint64(p.Data[1:])
			stream := string(p.Data[9:])
			byStream := archive[stream]
			seqs := make([]uint64, 0, len(byStream))
			for s := range byStream {
				if s > afterSeq {
					seqs = append(seqs, s)
				}
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			if len(seqs) > maxReplayPerNack {
				seqs = seqs[:maxReplayPerNack]
			}
			for _, s := range seqs {
				frame := byStream[s]
				out.RepairBytes += uint64(len(frame))
				coordConn.Unicast(p.From, frame)
			}
		}
	}
	var err error
	coordConn, err = net.AttachHandler(coordID, coordHandler)
	if err != nil {
		panic("replay: attach coordinator: " + err.Error())
	}

	// Receivers (publishers included — multicast excludes self): one
	// tracker per (receiver, sender) stream, one repair engine per
	// receiver when the candidate enables repair.
	conns := make(map[string]transport.Conn, len(w.Receivers))
	trackers := make(map[string]map[string]*tracker, len(w.Receivers))
	engines := make([]*repair.Engine, 0, len(w.Receivers))
	for i, id := range w.Receivers {
		id := id
		mine := make(map[string]*tracker, len(w.Senders))
		for _, s := range w.Senders {
			if s != id {
				mine[s] = newTracker(&out, lat)
			}
		}
		trackers[id] = mine

		var eng *repair.Engine
		if pol.Repair.Enabled {
			eng = repair.New(repair.Config{
				StallTimeout: pol.Repair.StallTimeout(),
				MaxRetries:   pol.Repair.MaxRetries,
				Seed:         cfg.Seed + int64(i) + 1,
			}, func(stream string, afterSeq uint64, _ int) error {
				nack := encodeNack(stream, afterSeq)
				out.RepairRequests++
				out.NackBytes += uint64(len(nack))
				return conns[id].Unicast(coordID, nack)
			}, func(stream string, waitingFor uint64) {
				t := mine[stream]
				out.Abandoned++
				t.skipPast(waitingFor, clk.Now())
			})
			for s, t := range mine {
				eng.Watch(s, t)
			}
			engines = append(engines, eng)
		}

		conn, err := net.AttachHandler(id, func(p transport.Packet) {
			if p.Data[0] != frameData {
				return
			}
			sender, seq, sentNS := decodeData(p.Data)
			t := mine[sender]
			if t == nil {
				return // own stream or one we don't track
			}
			wasGap := t.gapSince
			t.accept(seq, sentNS, p.At)
			// A closed gap that repair had asked about is a convergence
			// sample: stall-start to fill.
			if wasGap != 0 && t.gapSince == 0 && p.Unicast {
				out.ConvergeNS = append(out.ConvergeNS, p.At.UnixNano()-wasGap)
			}
		})
		if err != nil {
			panic("replay: attach " + id + ": " + err.Error())
		}
		conns[id] = conn
		net.SetLinkBoth(id, coordID, transport.Link{Delay: cfg.Delay})
	}

	// Sender schedule: each surviving publish renumbers with a fresh
	// per-sender seq at send time — candidate budgets change which
	// frames exist *before* sequencing, exactly as the live pipeline
	// truncates before the session layer numbers frames.
	nextSeq := make(map[string]uint64, len(w.Senders))
	senderConns := make(map[string]transport.Conn, len(w.Senders))
	for _, s := range w.Senders {
		nextSeq[s] = 1
		if c, ok := conns[s]; ok {
			senderConns[s] = c
		} else {
			c, err := net.AttachHandler(s, func(transport.Packet) {})
			if err != nil {
				panic("replay: attach sender " + s + ": " + err.Error())
			}
			senderConns[s] = c
			net.SetLinkBoth(s, coordID, transport.Link{Delay: cfg.Delay})
		}
	}
	for i := range w.Publishes {
		pub := w.Publishes[i]
		d := time.Duration(pub.AtNS - w.StartNS)
		clk.ScheduleFunc(d, func(now time.Time) {
			if pub.Kind == "data" {
				budget := pol.Inference.Budget(
					w.hostValueAt("cpu-load", pub.AtNS),
					w.hostValueAt("page-faults", pub.AtNS),
					cfg.Loss)
				if pub.Level >= budget {
					out.Truncated++
					return
				}
			}
			seq := nextSeq[pub.Sender]
			nextSeq[pub.Sender] = seq + 1
			frame := encodeData(pub.Sender, seq, now.UnixNano(), pub.Level, pub.Size)
			out.Sent++
			out.DataBytes += uint64(len(frame))
			reach := len(w.Receivers)
			if receiverSet[pub.Sender] {
				reach--
			}
			out.Expected += reach
			senderConns[pub.Sender].Multicast(frame)
		})
	}

	// Repair poll ticks: one recurring event drives every engine, in
	// receiver order, from the driving goroutine — Poll itself scans
	// streams sorted, so the whole control loop is deterministic.
	end := time.Unix(0, w.EndNS)
	drain := 500 * time.Millisecond
	if pol.Repair.Enabled {
		drain = abandonSpan(pol.Repair) + time.Second
		interval := pol.Repair.StallTimeout() / 4
		if interval <= 0 {
			interval = time.Millisecond
		}
		stopAt := end.Add(drain)
		var tick func(now time.Time)
		tick = func(now time.Time) {
			for _, eng := range engines {
				eng.Poll(now)
			}
			if now.Before(stopAt) {
				clk.ScheduleFunc(interval, tick)
			}
		}
		clk.ScheduleFunc(interval, tick)
	}

	clk.AdvanceTo(end.Add(drain + 4*cfg.Delay + cfg.Jitter))
	if tl != nil {
		// One synchronous close captures the drain tail (repairs and
		// stragglers landing after the recorded span).
		tl.SampleNow()
		out.Curve = tl.Query(timeline.Query{})
	}

	// Repaired-gap counts from the engines (sorted receiver order).
	for _, eng := range engines {
		st := eng.Status()
		streams := make([]string, 0, len(st))
		for name := range st {
			streams = append(streams, name)
		}
		sort.Strings(streams)
		for _, name := range streams {
			out.Repaired += int(st[name].Repaired)
		}
	}

	if out.Expected > 0 {
		out.LossFrac = 1 - float64(out.Delivered)/float64(out.Expected)
		if out.LossFrac < 0 {
			out.LossFrac = 0
		}
	}
	sortInt64(out.DeliveryNS)
	sortInt64(out.ConvergeNS)
	out.DeliveryP99 = time.Duration(p99(out.DeliveryNS))
	out.ConvergeP99 = time.Duration(p99(out.ConvergeNS))
	return out
}

// abandonSpan bounds one full stall→retries→abandon cycle: stall
// timeout plus every backoff at maximum jitter.
func abandonSpan(r RepairPolicy) time.Duration {
	base := r.StallTimeout()
	span := base
	backoff := base
	max := 16 * base
	for i := 0; i < r.MaxRetries; i++ {
		span += backoff
		if backoff < max {
			backoff *= 2
		}
	}
	return span + span/2 // +50%: jitter margin and poll-grid slack
}

func sortInt64(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// p99 returns the 99th-percentile of a sorted sample (0 when empty).
func p99(sorted []int64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*99 + 99) / 100
	if i > len(sorted) {
		i = len(sorted)
	}
	return sorted[i-1]
}
