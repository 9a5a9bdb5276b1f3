package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// collect drains up to n packets from ch or times out.
func collect(t *testing.T, ch <-chan Packet, n int, timeout time.Duration) []Packet {
	t.Helper()
	var out []Packet
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case p, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, p)
		case <-deadline:
			t.Fatalf("timeout: received %d of %d packets", len(out), n)
		}
	}
	return out
}

func TestSimNetMulticast(t *testing.T) {
	net := NewSimNet(SimNetConfig{})
	defer net.Close()
	a, err := net.Attach("a")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := net.Attach("b")
	c, _ := net.Attach("c")

	if err := a.Multicast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, conn := range []Conn{b, c} {
		p := collect(t, conn.Recv(), 1, time.Second)[0]
		if p.From != "a" || string(p.Data) != "hello" || p.Unicast {
			t.Errorf("%s got %+v", conn.ID(), p)
		}
	}
	// The sender must not receive its own multicast.
	select {
	case p := <-a.Recv():
		t.Errorf("sender received own multicast: %+v", p)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestSimNetUnicast(t *testing.T) {
	net := NewSimNet(SimNetConfig{})
	defer net.Close()
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	c, _ := net.Attach("c")

	if err := a.Unicast("b", []byte("direct")); err != nil {
		t.Fatal(err)
	}
	p := collect(t, b.Recv(), 1, time.Second)[0]
	if !p.Unicast || string(p.Data) != "direct" {
		t.Errorf("unicast packet: %+v", p)
	}
	select {
	case <-c.Recv():
		t.Error("unicast leaked to third node")
	case <-time.After(20 * time.Millisecond):
	}
	if err := a.Unicast("nobody", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown dest: %v", err)
	}
}

func TestSimNetAttachErrors(t *testing.T) {
	net := NewSimNet(SimNetConfig{})
	defer net.Close()
	if _, err := net.Attach("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach("a"); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate attach: %v", err)
	}
	net.Close()
	if _, err := net.Attach("b"); !errors.Is(err, ErrClosed) {
		t.Errorf("attach after close: %v", err)
	}
}

func TestSimNetLoss(t *testing.T) {
	net := NewSimNet(SimNetConfig{Seed: 42})
	defer net.Close()
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	net.SetLink("a", "b", Link{Loss: 1.0})

	for i := 0; i < 10; i++ {
		if err := a.Unicast("b", []byte("gone")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-b.Recv():
		t.Fatal("packet delivered over 100% loss link")
	case <-time.After(30 * time.Millisecond):
	}
	if st := net.Stats("b"); st.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", st.Dropped)
	}

	// Partial loss: with seed fixed, roughly half arrive.
	net.SetLink("a", "b", Link{Loss: 0.5})
	const sent = 200
	for i := 0; i < sent; i++ {
		a.Unicast("b", []byte("maybe"))
	}
	time.Sleep(50 * time.Millisecond)
	st := net.Stats("b")
	got := int(st.Delivered)
	if got < sent/4 || got > sent*3/4 {
		t.Errorf("delivered %d of %d at 50%% loss", got, sent)
	}
}

func TestSimNetDelayAndJitter(t *testing.T) {
	net := NewSimNet(SimNetConfig{Seed: 7})
	defer net.Close()
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	net.SetLink("a", "b", Link{Delay: 30 * time.Millisecond, Jitter: 10 * time.Millisecond})

	start := time.Now()
	a.Unicast("b", []byte("slow"))
	collect(t, b.Recv(), 1, time.Second)
	elapsed := time.Since(start)
	if elapsed < 25*time.Millisecond {
		t.Errorf("delivery after %v, want >= ~30ms", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("delivery after %v, far beyond delay+jitter", elapsed)
	}
}

func TestSimNetBandwidthQueueing(t *testing.T) {
	net := NewSimNet(SimNetConfig{Seed: 7})
	defer net.Close()
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	// 80 kbit/s: a 1000-byte frame serializes in 100ms.
	net.SetLink("a", "b", Link{BandwidthBps: 80_000})

	frame := make([]byte, 1000)
	start := time.Now()
	a.Unicast("b", frame)
	a.Unicast("b", frame)
	pkts := collect(t, b.Recv(), 2, 3*time.Second)
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Errorf("two frames in %v; queueing should serialize to ~200ms", elapsed)
	}
	_ = pkts
}

func TestSimNetDuplicate(t *testing.T) {
	net := NewSimNet(SimNetConfig{Seed: 3})
	defer net.Close()
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")
	net.SetLink("a", "b", Link{Duplicate: 1.0})

	a.Unicast("b", []byte("twice"))
	pkts := collect(t, b.Recv(), 2, time.Second)
	if string(pkts[0].Data) != "twice" || string(pkts[1].Data) != "twice" {
		t.Errorf("duplicate contents: %q, %q", pkts[0].Data, pkts[1].Data)
	}
}

func TestSimNetPartition(t *testing.T) {
	net := NewSimNet(SimNetConfig{})
	defer net.Close()
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")

	net.Partition("a", "b", true)
	a.Unicast("b", []byte("blocked"))
	select {
	case <-b.Recv():
		t.Fatal("delivery across partition")
	case <-time.After(30 * time.Millisecond):
	}

	net.Partition("a", "b", false)
	a.Unicast("b", []byte("healed"))
	p := collect(t, b.Recv(), 1, time.Second)[0]
	if string(p.Data) != "healed" {
		t.Errorf("post-heal packet: %q", p.Data)
	}
}

func TestSimNetMTU(t *testing.T) {
	net := NewSimNet(SimNetConfig{MTU: 100})
	defer net.Close()
	a, _ := net.Attach("a")
	net.Attach("b")
	if err := a.Multicast(make([]byte, 101)); !errors.Is(err, ErrFrameSize) {
		t.Errorf("oversize frame: %v", err)
	}
	if err := a.Multicast(make([]byte, 100)); err != nil {
		t.Errorf("max-size frame: %v", err)
	}
}

func TestSimNetCloseSemantics(t *testing.T) {
	net := NewSimNet(SimNetConfig{})
	a, _ := net.Attach("a")
	b, _ := net.Attach("b")

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := a.Multicast([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
	if err := b.Unicast("a", []byte("x")); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("send to detached node: %v", err)
	}
	if _, ok := <-a.Recv(); ok {
		t.Error("recv channel should be closed")
	}
	net.Close()
	net.Close() // idempotent
}

func TestSimNetStatsAndOverflow(t *testing.T) {
	net := NewSimNet(SimNetConfig{InboxDepth: 2})
	defer net.Close()
	a, _ := net.Attach("a")
	net.Attach("b")

	for i := 0; i < 10; i++ {
		a.Unicast("b", []byte{byte(i)})
	}
	time.Sleep(50 * time.Millisecond)
	st := net.Stats("b")
	if st.Delivered != 2 {
		t.Errorf("delivered = %d, want 2 (inbox depth)", st.Delivered)
	}
	if st.Overflow != 8 {
		t.Errorf("overflow = %d, want 8", st.Overflow)
	}
	if st.Bytes != 2 {
		t.Errorf("bytes = %d, want 2", st.Bytes)
	}
	if sa := net.Stats("a"); sa.Sent != 10 {
		t.Errorf("a sent = %d, want 10", sa.Sent)
	}
	if unknown := net.Stats("zzz"); unknown != (Stats{}) {
		t.Errorf("unknown node stats = %+v", unknown)
	}
}

func TestSimNetManyNodesBroadcastStress(t *testing.T) {
	net := NewSimNet(SimNetConfig{Seed: 11})
	defer net.Close()
	const n = 20
	conns := make([]Conn, n)
	for i := range conns {
		c, err := net.Attach(fmt.Sprintf("node-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	const rounds = 25
	for r := 0; r < rounds; r++ {
		if err := conns[r%n].Multicast([]byte{byte(r)}); err != nil {
			t.Fatal(err)
		}
	}
	// Every node receives every multicast it did not send.
	for i, c := range conns {
		var mine int
		for r := 0; r < rounds; r++ {
			if r%n == i {
				mine++
			}
		}
		pkts := collect(t, c.Recv(), rounds-mine, 3*time.Second)
		if len(pkts) != rounds-mine {
			t.Errorf("node %d: %d packets, want %d", i, len(pkts), rounds-mine)
		}
	}
}

// TestSimNetLinkBusyPurgedOnClose is the leak regression: the
// per-directed-pair serialization map must not accumulate entries for
// detached nodes under attach/detach churn.
func TestSimNetLinkBusyPurgedOnClose(t *testing.T) {
	net := NewSimNet(SimNetConfig{
		Seed:        3,
		DefaultLink: Link{BandwidthBps: 1e6}, // finite bandwidth populates linkBusy
	})
	defer net.Close()
	hub, _ := net.Attach("hub")
	go func() { // drain the hub so deliveries don't pile up
		for range hub.Recv() {
		}
	}()

	for round := 0; round < 5; round++ {
		id := fmt.Sprintf("churn-%d", round)
		c, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Multicast([]byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := hub.Unicast(id, []byte("reply")); err != nil {
			t.Fatal(err)
		}
		net.mu.Lock()
		populated := len(net.linkBusy) > 0
		net.mu.Unlock()
		if !populated {
			t.Fatal("test precondition: bandwidth-limited sends should populate linkBusy")
		}
		c.Close()
		net.mu.Lock()
		for k := range net.linkBusy {
			if k.from == id || k.to == id {
				t.Errorf("round %d: linkBusy leaked %v after close", round, k)
			}
		}
		net.mu.Unlock()
	}

	// After every churn node detached, only hub-internal state may
	// remain (and hub has no one to talk to, so: nothing).
	net.mu.Lock()
	n := len(net.linkBusy)
	net.mu.Unlock()
	if n != 0 {
		t.Errorf("linkBusy retains %d entries after all peers detached", n)
	}
}

// seededLossDeliveries multicasts the same frames from one sender to
// eight receivers over a lossy wall-clock SimNet and returns, per
// receiver, the payload bytes it was delivered.
func seededLossDeliveries(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	net := NewSimNet(SimNetConfig{Seed: seed, DefaultLink: Link{Loss: 0.3}})
	defer net.Close()
	const frames = 200
	rxs := make([]Conn, 8)
	for i := range rxs {
		var err error
		if rxs[i], err = net.Attach(fmt.Sprintf("rx-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := net.Attach("tx")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := tx.Multicast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Zero-delay links deliver inline, so every surviving frame is
	// already queued when Multicast returns.
	got := make(map[string][]byte)
	for _, rx := range rxs {
		for len(rx.Recv()) > 0 {
			got[rx.ID()] = append(got[rx.ID()], (<-rx.Recv()).Data[0])
		}
	}
	return got
}

// TestSimNetSeededLossIsDeterministic: with the same seed, each
// receiver on a lossy wall-clock network loses the same frames run
// after run, because each send draws the rng over the recipients in a
// fixed order rather than in map iteration order.
func TestSimNetSeededLossIsDeterministic(t *testing.T) {
	a, b := seededLossDeliveries(t, 5), seededLossDeliveries(t, 5)
	if len(a) != 8 {
		t.Fatalf("%d receivers got frames, want 8", len(a))
	}
	for id, frames := range a {
		if len(frames) == 0 || len(frames) == 200 {
			t.Errorf("%s: %d of 200 frames at 30%% loss", id, len(frames))
		}
		if string(frames) != string(b[id]) {
			t.Errorf("%s: delivered-frame sets differ across same-seed runs (%d vs %d frames)",
				id, len(frames), len(b[id]))
		}
	}
}
