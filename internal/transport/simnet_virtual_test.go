package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"adaptiveqos/internal/clock"
)

func TestDESNetHandlerDelivery(t *testing.T) {
	clk := clock.NewVirtual(time.Time{})
	n := NewSimNet(SimNetConfig{Clock: clk, DefaultLink: Link{Delay: 5 * time.Millisecond}})
	var got []Packet
	a, err := n.AttachHandler("a", func(p Packet) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Attach("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unicast("a", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("delivery before the clock advanced")
	}
	clk.Advance(4 * time.Millisecond)
	if len(got) != 0 {
		t.Fatal("delivery before the link delay elapsed")
	}
	clk.Advance(2 * time.Millisecond)
	if len(got) != 1 || string(got[0].Data) != "hi" || got[0].From != "b" || !got[0].Unicast {
		t.Fatalf("got %+v", got)
	}
	wantAt := clk.Now().Add(-time.Millisecond)
	if !got[0].At.Equal(wantAt) {
		t.Fatalf("arrival stamped %v, want %v", got[0].At, wantAt)
	}
	if s := n.Stats("a"); s.Delivered != 1 || s.Dropped != 0 {
		t.Fatalf("stats %+v", s)
	}
	if s := n.Stats("b"); s.Sent != 1 {
		t.Fatalf("sender stats %+v", s)
	}
	_ = a
}

func TestDESNetMulticastOrderAndSharing(t *testing.T) {
	clk := clock.NewVirtual(time.Time{})
	n := NewSimNet(SimNetConfig{Clock: clk})
	var order []string
	var datas [][]byte
	for _, id := range []string{"w3", "w1", "w2"} {
		id := id
		if _, err := n.AttachHandler(id, func(p Packet) {
			order = append(order, id)
			datas = append(datas, p.Data)
		}); err != nil {
			t.Fatal(err)
		}
	}
	src, err := n.AttachHandler("src", func(Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Multicast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("zero-delay multicast arrival order = %v, want sorted IDs", order)
	}
	// One shared copy for all recipients.
	if &datas[0][0] != &datas[1][0] || &datas[1][0] != &datas[2][0] {
		t.Error("multicast should share one frame copy across recipients")
	}
}

func TestDESNetLossDupPartition(t *testing.T) {
	clk := clock.NewVirtual(time.Time{})
	n := NewSimNet(SimNetConfig{Clock: clk, Seed: 7})
	delivered := 0
	if _, err := n.AttachHandler("rx", func(Packet) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	tx, err := n.AttachHandler("tx", func(Packet) {})
	if err != nil {
		t.Fatal(err)
	}

	n.SetLink("tx", "rx", Link{Loss: 1})
	if err := tx.Unicast("rx", []byte("gone")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if delivered != 0 {
		t.Fatal("lossy link delivered")
	}
	if s := n.Stats("rx"); s.Dropped != 1 {
		t.Fatalf("stats %+v", s)
	}

	n.SetLink("tx", "rx", Link{Duplicate: 1})
	if err := tx.Unicast("rx", []byte("twice")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if delivered != 2 {
		t.Fatalf("duplicating link delivered %d, want 2", delivered)
	}

	n.SetLink("tx", "rx", Link{})
	n.Partition("tx", "rx", true)
	if err := tx.Unicast("rx", []byte("cut")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if delivered != 2 {
		t.Fatal("partitioned link delivered")
	}
	n.Partition("tx", "rx", false)
	if err := tx.Unicast("rx", []byte("healed")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	if delivered != 3 {
		t.Fatal("healed link did not deliver")
	}
}

func TestDESNetBandwidthSerialization(t *testing.T) {
	clk := clock.NewVirtual(time.Time{})
	n := NewSimNet(SimNetConfig{Clock: clk})
	// 8000 bit/s: a 100-byte frame takes 100ms to serialize.
	n.SetDefaultLink(Link{BandwidthBps: 8000})
	var arrivals []time.Duration
	start := clk.Now()
	if _, err := n.AttachHandler("rx", func(p Packet) {
		arrivals = append(arrivals, p.At.Sub(start))
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := n.AttachHandler("tx", func(Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 100)
	// Back-to-back sends queue behind each other on the link.
	for i := 0; i < 3; i++ {
		if err := tx.Unicast("rx", frame); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals %v", arrivals)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrivals %v, want %v", arrivals, want)
		}
	}
}

func TestDESNetChannelModeCompat(t *testing.T) {
	clk := clock.NewVirtual(time.Time{})
	n := NewSimNet(SimNetConfig{Clock: clk, DefaultLink: Link{Delay: time.Millisecond}})
	rx, err := n.Attach("rx")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := n.Attach("tx")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Multicast([]byte("ch")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Millisecond)
	select {
	case p := <-rx.Recv():
		if string(p.Data) != "ch" || p.From != "tx" {
			t.Fatalf("got %+v", p)
		}
	default:
		t.Fatal("channel-mode inbox empty after advance")
	}
	if err := rx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-rx.Recv(); open {
		t.Fatal("inbox should close with the conn")
	}
}

// traceHash runs a small seeded scenario and hashes its trace stream.
func traceHash(seed int64) [32]byte {
	h := sha256.New()
	clk := clock.NewVirtual(time.Time{})
	n := NewSimNet(SimNetConfig{Clock: clk, Seed: seed, DefaultLink: Link{
		Delay: 2 * time.Millisecond, Jitter: 3 * time.Millisecond,
		Loss: 0.1, Duplicate: 0.05, BandwidthBps: 1e6,
	}})
	n.SetTrace(func(ev TraceEvent) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(ev.AtNS))
		h.Write(buf[:])
		fmt.Fprintf(h, "%s>%s:%d:%d:%v", ev.From, ev.To, ev.Kind, ev.Size, ev.Unicast)
	})
	conns := make([]Conn, 8)
	for i := range conns {
		id := fmt.Sprintf("n%02d", i)
		var err error
		conns[i], err = n.AttachHandler(id, func(p Packet) {})
		if err != nil {
			panic(err)
		}
	}
	for round := 0; round < 20; round++ {
		src := conns[round%len(conns)]
		_ = src.Multicast([]byte(fmt.Sprintf("round-%d-payload", round)))
		clk.Advance(10 * time.Millisecond)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestDESNetDeterministicTrace(t *testing.T) {
	a, b := traceHash(42), traceHash(42)
	if a != b {
		t.Fatal("same seed produced different trace streams")
	}
	if c := traceHash(43); c == a {
		t.Fatal("different seeds produced identical trace streams (rng unused?)")
	}
}
