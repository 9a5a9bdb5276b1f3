package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

func newCoordinatedNet(t *testing.T) (*transport.SimNet, *Coordinator) {
	t.Helper()
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 51})
	t.Cleanup(net.Close)
	conn, err := net.Attach("coordinator")
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(conn, session.Group{Objective: "test-session"})
	t.Cleanup(func() { coord.Close() })
	return net, coord
}

func TestCoordinatorArchivesAndReplays(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	ca, _ := net.Attach("alice")
	a := NewClient(ca, Config{})
	defer a.Close()

	for i := 0; i < 3; i++ {
		if err := a.Say(fmt.Sprintf("history line %d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "archive", func() bool { return coord.ArchivedEvents() == 3 })
	if coord.Session().LastSeq() != 3 {
		t.Errorf("session seq = %d", coord.Session().LastSeq())
	}
	if !coord.Session().IsMember("alice") {
		t.Error("coordinator should auto-register observed senders")
	}

	// A late joiner requests the history and absorbs it.
	cb, _ := net.Attach("late-bob")
	b := NewClient(cb, Config{})
	defer b.Close()
	if b.Chat().Len() != 0 {
		t.Fatal("late joiner should start empty")
	}
	if err := b.RequestHistory("coordinator", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replayed history", func() bool { return b.Chat().Len() == 3 })
	lines := b.Chat().Lines()
	if lines[0].Sender != "alice" || lines[0].Text != "history line 0" {
		t.Errorf("replayed line: %+v", lines[0])
	}

	// Partial catch-up: only events after seq 2.
	cc, _ := net.Attach("later-carol")
	c := NewClient(cc, Config{})
	defer c.Close()
	if err := c.RequestHistory("coordinator", 2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "partial history", func() bool { return c.Chat().Len() == 1 })
	if c.Chat().Lines()[0].Text != "history line 2" {
		t.Errorf("partial replay: %+v", c.Chat().Lines())
	}
}

func TestCoordinatorReplayRespectsSemanticFilter(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	ca, _ := net.Attach("alice")
	a := NewClient(ca, Config{})
	defer a.Close()

	if err := a.Say("for medics", `team == "medical"`); err != nil {
		t.Fatal(err)
	}
	if err := a.Say("for everyone", ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "archive", func() bool { return coord.ArchivedEvents() == 2 })

	// The late joiner is on the logistics team: the medical line is
	// filtered out of its replayed history by its own profile.
	cb, _ := net.Attach("bob")
	b := NewClient(cb, Config{})
	defer b.Close()
	b.Profile().SetInterest("team", selector.S("logistics"))
	if err := b.RequestHistory("coordinator", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "filtered replay", func() bool { return b.Stats().EventsFiltered >= 1 })
	time.Sleep(30 * time.Millisecond)
	if b.Chat().Len() != 1 || b.Chat().Lines()[0].Text != "for everyone" {
		t.Errorf("filtered history: %+v", b.Chat().Lines())
	}
}

func TestCoordinatorArchivesImageShares(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	ca, _ := net.Attach("alice")
	a := NewClient(ca, Config{})
	defer a.Close()

	im := wavelet.Circles(32, 32)
	obj, err := media.EncodeImage(im, "archived diagram")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ShareImage("arch-1", obj, ""); err != nil {
		t.Fatal(err)
	}
	// 1 announce + 16 data packets.
	waitFor(t, "image archive", func() bool { return coord.ArchivedEvents() == 17 })

	// Late joiner recovers the full image from the archive.
	cb, _ := net.Attach("bob")
	b := NewClient(cb, Config{})
	defer b.Close()
	if err := b.RequestHistory("coordinator", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replayed image", func() bool {
		st, err := b.Viewer().Stats("arch-1")
		return err == nil && st.PacketsAccepted == 16
	})
	res, err := b.Viewer().Render("arch-1")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lossless || !res.Image.Equal(im) {
		t.Error("archived image should replay losslessly")
	}
}

func TestCoordinatorArchiveCap(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	ca, _ := net.Attach("alice")
	a := NewClient(ca, Config{})
	defer a.Close()

	for i := 0; i < 10; i++ {
		if err := a.Say(fmt.Sprintf("m%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "archive fill", func() bool { return coord.ArchivedEvents() == 10 })
	coord.SetArchiveCap(4)
	if got := coord.ArchivedEvents(); got != 4 {
		t.Errorf("frames after cap = %d, want 4", got)
	}

	cb, _ := net.Attach("bob")
	b := NewClient(cb, Config{})
	defer b.Close()
	if err := b.RequestHistory("coordinator", 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "capped replay", func() bool { return b.Chat().Len() == 4 })
	if b.Chat().Lines()[0].Text != "m6" {
		t.Errorf("oldest retained line: %+v", b.Chat().Lines()[0])
	}
}

func TestCoordinatorGroupFilterSkipsArchival(t *testing.T) {
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 52})
	defer net.Close()
	conn, _ := net.Attach("coordinator")
	coord := NewCoordinator(conn, session.Group{
		Objective: "clinical-only",
		Filter:    selector.MustCompile(`client == "alice"`),
	})
	defer coord.Close()

	ca, _ := net.Attach("alice")
	cb, _ := net.Attach("mallory")
	a := NewClient(ca, Config{})
	m := NewClient(cb, Config{})
	defer a.Close()
	defer m.Close()

	a.Say("kept", "")
	m.Say("not archived", "")
	waitFor(t, "selective archive", func() bool { return coord.ArchivedEvents() >= 1 })
	time.Sleep(30 * time.Millisecond)
	if got := coord.ArchivedEvents(); got != 1 {
		t.Errorf("archived %d events, want 1 (group filter)", got)
	}
}

// eventPacket is the datagram a client's chat frame numbered seq
// arrives as.
func eventPacket(t testing.TB, sender string, seq uint32) transport.Packet {
	t.Helper()
	frame, err := message.Encode(&message.Message{
		Kind:   message.KindEvent,
		Sender: sender,
		Seq:    seq,
		Attrs:  selector.Attributes{message.AttrApp: selector.S("chat")},
		Body:   []byte(fmt.Sprintf("%s #%d", sender, seq)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return transport.Packet{From: sender, Data: message.WrapWhole(frame)}
}

// drainSeqs returns the sender seqs of the frames queued at conn, in
// arrival order.
func drainSeqs(t testing.TB, conn transport.Conn) []uint32 {
	t.Helper()
	u := message.NewUnwrapper()
	var seqs []uint32
	for len(conn.Recv()) > 0 {
		pkt := <-conn.Recv()
		frame, err := u.Unwrap(pkt.From, pkt.Data)
		if err != nil || frame == nil {
			t.Fatalf("replayed datagram: %v", err)
		}
		m, err := message.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, m.Seq)
	}
	return seqs
}

// TestCoordinatorSeqJumpDoesNotStall: a sender jumping far ahead in
// its sequence space must cost the coordinator a bounded amount of
// work and memory — the flush remembers at most maxStreamMissing
// skipped seqs — and a frame numbered 0xFFFFFFFF must not wrap the
// stream back to 0, where every later frame would archive again.
func TestCoordinatorSeqJumpDoesNotStall(t *testing.T) {
	_, coord := newCoordinatedNet(t)
	before := metrics.Counters()[metrics.CtrArchiveDupDrops]
	pkts := []transport.Packet{eventPacket(t, "jumper", 1<<31)}
	for s := uint32(2); s <= maxStreamPending+1; s++ {
		pkts = append(pkts, eventPacket(t, "jumper", s))
	}
	pkts = append(pkts,
		eventPacket(t, "jumper", 1<<31-1), // straggler within the window
		eventPacket(t, "jumper", 100),     // skipped long ago: a duplicate
		eventPacket(t, "top", 1),
		eventPacket(t, "top", math.MaxUint32))
	for s := uint32(math.MaxUint32 - maxStreamPending); s < math.MaxUint32; s++ {
		pkts = append(pkts, eventPacket(t, "top", s))
	}
	pkts = append(pkts, eventPacket(t, "top", math.MaxUint32)) // a duplicate, not seq "0"
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, pkt := range pkts {
			coord.handle(pkt)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("coordinator stalled on a sequence-number jump")
	}
	coord.mu.Lock()
	missing := len(coord.streams["jumper"].missing)
	coord.mu.Unlock()
	if missing > maxStreamMissing {
		t.Errorf("missing set holds %d seqs, bound %d", missing, maxStreamMissing)
	}
	// jumper: 2..65, 1<<31 and the straggler; top: 1 and the 65 flushed.
	if got, want := coord.ArchivedEvents(), (maxStreamPending+2)+(maxStreamPending+2); got != want {
		t.Errorf("archived %d events, want %d", got, want)
	}
	if got := metrics.Counters()[metrics.CtrArchiveDupDrops] - before; got != 2 {
		t.Errorf("duplicate drops = %d, want 2", got)
	}
}

// TestCoordinatorNackCostIndependentOfArchive: answering a NACK costs
// the same allocations whether other senders have archived 100 frames
// or 10,000, and replays exactly the asked-for sender's retained frames
// past after-seq, in ascending sender seq — a flush-path straggler
// included, frames trimmed by SetArchiveCap not.
func TestCoordinatorNackCostIndependentOfArchive(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	req, err := net.Attach("requester")
	if err != nil {
		t.Fatal(err)
	}
	// The target's seq 5 is lost until the flush skips past it, then
	// arrives as a straggler after seq 80.
	for s := uint32(1); s <= 80; s++ {
		if s != 5 {
			coord.handle(eventPacket(t, "target", s))
		}
	}
	coord.handle(eventPacket(t, "target", 5))
	sent := 0
	others := func(n int) {
		for ; n > 0; n-- {
			coord.handle(eventPacket(t, fmt.Sprintf("other-%d", sent%4), uint32(sent/4+1)))
			sent++
		}
	}
	nack := func() {
		coord.replayFor("requester", "target", 60)
		for len(req.Recv()) > 0 {
			<-req.Recv()
		}
	}

	others(100)
	small := testing.AllocsPerRun(20, nack)
	others(9900)
	if got := coord.ArchivedEvents(); got != 80+10000 {
		t.Fatalf("archived %d events, want %d", got, 80+10000)
	}
	large := testing.AllocsPerRun(20, nack)
	if small != large {
		t.Errorf("NACK allocs = %v with 100 other frames, %v with 10,000", small, large)
	}

	seqRange := func(from, to uint32) []uint32 {
		var out []uint32
		for s := from; s <= to; s++ {
			out = append(out, s)
		}
		return out
	}
	coord.replayFor("requester", "target", 2)
	if got, want := drainSeqs(t, req), seqRange(3, 80); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %v, want %v", got, want)
	}
	// Session seqs 1..40 hold the target's seqs 1-4 and 6-41; the
	// straggler (session seq 80) survives the trim.
	coord.SetArchiveCap(coord.ArchivedEvents() - 40)
	coord.replayFor("requester", "target", 2)
	if got, want := drainSeqs(t, req), append([]uint32{5}, seqRange(42, 80)...); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed after trim %v, want %v", got, want)
	}
}

// TestHistoryRequestValidatesAfterSeq: a history request whose
// after-seq is not a whole number the sequence space can hold is
// rejected outright, never truncated into some other request.
func TestHistoryRequestValidatesAfterSeq(t *testing.T) {
	net, coord := newCoordinatedNet(t)
	req, err := net.Attach("requester")
	if err != nil {
		t.Fatal(err)
	}
	for s := uint32(1); s <= 3; s++ {
		coord.handle(eventPacket(t, "alice", s))
	}
	for _, tc := range []struct {
		name   string
		after  selector.Value
		scoped bool
		want   int // frames replayed (none when rejected)
	}{
		{"absent", selector.Value{}, true, 3},
		{"zero", selector.N(0), true, 3},
		{"two", selector.N(2), true, 1},
		{"max uint32", selector.N(math.MaxUint32), true, 0},
		{"NaN", selector.N(math.NaN()), true, 0},
		{"negative", selector.N(-1), true, 0},
		{"fractional", selector.N(0.5), true, 0},
		{"past uint32", selector.N(1<<32 + 1), true, 0},
		{"infinite", selector.N(math.Inf(1)), true, 0},
		{"string", selector.S("1"), true, 0},
		{"unscoped zero", selector.N(0), false, 3},
		{"unscoped two", selector.N(2), false, 1},
		{"unscoped 2^33", selector.N(1 << 33), false, 0},
		{"unscoped NaN", selector.N(math.NaN()), false, 0},
		{"unscoped negative", selector.N(-1), false, 0},
		{"unscoped fractional", selector.N(0.5), false, 0},
		{"unscoped 2^64", selector.N(0x1p64), false, 0},
	} {
		attrs := selector.Attributes{attrCtrl: selector.S(ctrlHistoryReq)}
		if tc.after.Valid() {
			attrs[attrAfterSeq] = tc.after
		}
		if tc.scoped {
			attrs[attrForSender] = selector.S("alice")
		}
		frame, err := message.Encode(&message.Message{Kind: message.KindControl, Sender: "requester", Seq: 1, Attrs: attrs})
		if err != nil {
			t.Fatal(err)
		}
		coord.handle(transport.Packet{From: "requester", Data: message.WrapWhole(frame)})
		if got := len(drainSeqs(t, req)); got != tc.want {
			t.Errorf("%s: replayed %d frames, want %d", tc.name, got, tc.want)
		}
	}
}
