// Benchmarks regenerating every figure in the paper's evaluation
// (Figs 6–10), the ablations called out in DESIGN.md §5, and
// micro-benchmarks of the hot substrate paths.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches print their tables once (with -v or in bench
// output) and then time a full regeneration per iteration.
package adaptiveqos_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptiveqos/internal/apps"
	"adaptiveqos/internal/basestation"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/experiments"
	"adaptiveqos/internal/hostagent"
	"adaptiveqos/internal/inference"
	"adaptiveqos/internal/media"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/rtp"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/session"
	"adaptiveqos/internal/snmp"
	"adaptiveqos/internal/transport"
	"adaptiveqos/internal/wavelet"
)

var printOnce sync.Map

func printTable(b *testing.B, name, table string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		b.Logf("%s:\n%s", name, table)
	}
}

// --- Figure benches: each iteration regenerates the whole figure ---

func BenchmarkFig6PageFaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiments.Fig6(8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "Figure 6 (image viewer vs page faults)", table.String())
		}
	}
}

func BenchmarkFig7CPULoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiments.Fig7(8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "Figure 7 (image viewer vs CPU load)", table.String())
		}
	}
}

func BenchmarkFig8Distance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "Figure 8 (two clients, varying distance)", table.String())
		}
	}
}

func BenchmarkFig9Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := experiments.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "Figure 9 (two clients, varying power)", table.String())
		}
	}
}

func BenchmarkFig10MultiClient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable(b, "Figure 10 (three clients, joins + drops)", res.Table.String())
			b.Logf("drop on 2nd join: %.0f%% (paper ~90%%), on 3rd join: %.0f%% (paper ~23%%)",
				res.DropOnSecondJoin*100, res.DropOnThirdJoin*100)
		}
		b.ReportMetric(res.DropOnSecondJoin*100, "%drop2")
		b.ReportMetric(res.DropOnThirdJoin*100, "%drop3")
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationRosterVsSemantic compares the paper's
// profile-addressed (semantic) routing against a conventional
// name-based roster under interest churn: with rosters, every interest
// change must resynchronize a membership list before delivery can
// resume; with semantic matching the group is determined at delivery
// time with no maintenance traffic.
func BenchmarkAblationRosterVsSemantic(b *testing.B) {
	const nClients = 100
	const churnEvery = 4 // every 4th message one client changes interests

	profiles := make([]selector.Attributes, nClients)
	for i := range profiles {
		profiles[i] = selector.Attributes{
			"media": selector.S([]string{"text", "image", "video"}[i%3]),
			"topic": selector.S([]string{"logistics", "medical"}[i%2]),
		}
	}
	sel := selector.MustCompile(`media == "image" and topic == "medical"`)

	b.Run("semantic", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		delivered := 0
		for i := 0; i < b.N; i++ {
			if i%churnEvery == 0 {
				// Interest change is free: the profile is local state.
				p := profiles[rng.Intn(nClients)]
				p["media"] = selector.S([]string{"text", "image", "video"}[rng.Intn(3)])
			}
			for _, p := range profiles {
				if sel.Matches(p) {
					delivered++
				}
			}
		}
		if delivered == 0 {
			b.Fatal("nothing delivered")
		}
	})

	b.Run("roster", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		// The roster pre-computes the interested set, but every interest
		// change forces a full roster rebuild (the name-server round in
		// the paper's critique, modeled as recomputation cost).
		roster := make([]int, 0, nClients)
		rebuild := func() {
			roster = roster[:0]
			for i, p := range profiles {
				if sel.Matches(p) {
					roster = append(roster, i)
				}
			}
		}
		rebuild()
		delivered := 0
		for i := 0; i < b.N; i++ {
			if i%churnEvery == 0 {
				p := profiles[rng.Intn(nClients)]
				p["media"] = selector.S([]string{"text", "image", "video"}[rng.Intn(3)])
				rebuild()
			}
			delivered += len(roster)
		}
		if delivered == 0 {
			b.Fatal("nothing delivered")
		}
	})
}

// BenchmarkAblationBSCentralized compares radio-segment bytes needed
// to deliver one shared image to a mixed-capability wireless
// population: the base station's per-client tiering versus naively
// transmitting the full image to everyone.
func BenchmarkAblationBSCentralized(b *testing.B) {
	im := wavelet.Medical(128, 128, 3)
	obj, err := media.EncodeImage(im, "field image")
	if err != nil {
		b.Fatal(err)
	}
	reg := media.DefaultRegistry()
	sketch, err := reg.Transmode(obj, media.KindSketch)
	if err != nil {
		b.Fatal(err)
	}
	text, err := reg.Transmode(obj, media.KindText)
	if err != nil {
		b.Fatal(err)
	}
	tiers := []radio.Tier{radio.TierImage, radio.TierSketch, radio.TierText}

	b.Run("tiered", func(b *testing.B) {
		var bytes int
		for i := 0; i < b.N; i++ {
			bytes = 0
			for _, t := range tiers {
				switch t {
				case radio.TierImage:
					bytes += obj.Size()
				case radio.TierSketch:
					bytes += sketch.Size()
				case radio.TierText:
					bytes += text.Size()
				}
			}
		}
		b.ReportMetric(float64(bytes), "radio-bytes")
	})
	b.Run("naive-full", func(b *testing.B) {
		var bytes int
		for i := 0; i < b.N; i++ {
			bytes = len(tiers) * obj.Size()
		}
		b.ReportMetric(float64(bytes), "radio-bytes")
	})
}

// BenchmarkAblationPowerControl measures Goodman–Mandayam utility
// (throughput per watt) with and without the base station's uniform
// power scale-down: SIR is unchanged, energy halves, utility doubles.
func BenchmarkAblationPowerControl(b *testing.B) {
	// Two clients with enough SIR separation that the frame success
	// rate is meaningful (short 20-bit control frames).
	build := func() *radio.Channel {
		ch := radio.NewChannel(radio.Params{})
		ch.Join("a", 40, 2)
		ch.Join("b", 60, 2)
		return ch
	}
	sumUtility := func(ch *radio.Channel) float64 {
		var sum float64
		for _, id := range ch.IDs() {
			u, err := ch.Utility(id, 20, 10_000)
			if err != nil {
				b.Fatal(err)
			}
			sum += u
		}
		return sum
	}

	b.Run("no-control", func(b *testing.B) {
		ch := build()
		var u float64
		for i := 0; i < b.N; i++ {
			u = sumUtility(ch)
		}
		b.ReportMetric(u, "utility")
	})
	b.Run("scaled-down", func(b *testing.B) {
		ch := build()
		if err := ch.ScaleAllPowers(0.5); err != nil {
			b.Fatal(err)
		}
		var u float64
		for i := 0; i < b.N; i++ {
			u = sumUtility(ch)
		}
		b.ReportMetric(u, "utility")
	})
}

// BenchmarkAblationProgressive compares content usability under packet
// loss: the progressive stream renders from any contiguous prefix,
// while a monolithic transfer is useless unless every packet arrives.
func BenchmarkAblationProgressive(b *testing.B) {
	im := wavelet.Medical(64, 64, 4)
	obj, err := media.EncodeImage(im, "x")
	if err != nil {
		b.Fatal(err)
	}
	_, packets, err := apps.ShareImage("o", obj, 16)
	if err != nil {
		b.Fatal(err)
	}
	const loss = 0.15

	b.Run("progressive", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		var usable float64
		for i := 0; i < b.N; i++ {
			prefix := 0
			var bytes int
			for _, p := range packets {
				if rng.Float64() < loss {
					break // first loss ends the usable prefix
				}
				prefix++
				bytes += len(p)
			}
			if prefix > 0 {
				usable += float64(bytes) / float64(obj.Size())
			}
		}
		b.ReportMetric(usable/float64(b.N)*100, "%usable")
	})
	b.Run("monolithic", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		var usable float64
		for i := 0; i < b.N; i++ {
			ok := true
			for range packets {
				if rng.Float64() < loss {
					ok = false
				}
			}
			if ok {
				usable += 1
			}
		}
		b.ReportMetric(usable/float64(b.N)*100, "%usable")
	})
}

// --- Micro-benchmarks of hot paths ---

func BenchmarkSelectorMatch(b *testing.B) {
	sel := selector.MustCompile(
		`media == "video" and encoding in ["MPEG2", "JPEG"] and size <= 1048576 and exists(cap.display)`)
	attrs := selector.Attributes{
		"media":       selector.S("video"),
		"encoding":    selector.S("JPEG"),
		"size":        selector.N(500_000),
		"cap.display": selector.B(true),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !sel.Matches(attrs) {
			b.Fatal("should match")
		}
	}
}

// The dispatch-path selector used by the MatchProfile benches: four
// clauses over mixed attribute kinds, representative of real session
// selectors.
const benchDispatchSelector = `media == "video" and encoding in ["MPEG2", "JPEG"] and size <= 1048576 and exists(cap.display)`

var benchDispatchProfile = selector.Attributes{
	"media":       selector.S("video"),
	"encoding":    selector.S("JPEG"),
	"size":        selector.N(500_000),
	"cap.display": selector.B(true),
}

// BenchmarkMatchProfileCached is the production dispatch path: the
// message's selector text resolves through the process-global compiled
// cache, so steady state pays a map lookup plus evaluation.
func BenchmarkMatchProfileCached(b *testing.B) {
	m := &message.Message{Kind: message.KindEvent, Selector: benchDispatchSelector}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !m.MatchProfile(benchDispatchProfile) {
			b.Fatal("should match")
		}
	}
}

// BenchmarkMatchProfileUncached replicates the seed behavior — a full
// lex+parse+compile of the selector per delivered message — to quantify
// what the cache saves.
func BenchmarkMatchProfileUncached(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel, err := selector.Compile(benchDispatchSelector)
		if err != nil {
			b.Fatal(err)
		}
		if !sel.Matches(benchDispatchProfile) {
			b.Fatal("should match")
		}
	}
}

// BenchmarkProfileFlatten compares the memoized flattened-profile view
// (the per-frame receive path) with a rebuild per call (seed behavior:
// Snapshot().Flatten()).
func BenchmarkProfileFlatten(b *testing.B) {
	pm := profile.NewManager("bench")
	pm.SetInterest("media", selector.S("video"))
	pm.SetInterest("topic", selector.S("medical"))
	pm.SetPreference("modality", selector.S("image"))
	pm.SetState("cpu-load", selector.N(40))

	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if flat, _ := pm.FlatSnapshot(); len(flat) == 0 {
				b.Fatal("empty flatten")
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if flat := pm.Snapshot().Flatten(); len(flat) == 0 {
				b.Fatal("empty flatten")
			}
		}
	})
}

// BenchmarkMessageWrap compares the pooled encode+envelope path
// (WrapMessage) with the allocating seed path (Encode then Wrap).
func BenchmarkMessageWrap(b *testing.B) {
	m := &message.Message{
		Kind:     message.KindEvent,
		Sender:   "client-7",
		Seq:      99,
		Selector: `media == "image"`,
		Attrs: selector.Attributes{
			"media": selector.S("image"),
			"size":  selector.N(4096),
		},
		Body: make([]byte, 1024),
	}
	env := &message.Enveloper{}
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.WrapMessage(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame, err := message.Encode(m)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := env.Wrap(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchFanOut measures one uplink event relayed to n wireless
// clients: per-client selector match, tier gate and unicast.
// Thresholds are opened wide so population-driven SIR degradation does
// not change which clients are served across n. workers == 0 uses the
// default (GOMAXPROCS) pool; workers == 1 forces the sequential path.
func benchFanOut(b *testing.B, n, workers int) {
	wiredNet := transport.NewSimNet(transport.SimNetConfig{Seed: 1})
	radioNet := transport.NewSimNet(transport.SimNetConfig{Seed: 2})
	defer wiredNet.Close()
	defer radioNet.Close()
	bsWired, err := wiredNet.Attach("bs")
	if err != nil {
		b.Fatal(err)
	}
	bsRF, err := radioNet.Attach("bs")
	if err != nil {
		b.Fatal(err)
	}
	bs := basestation.New("bs", bsWired, bsRF, radio.NewChannel(radio.Params{}),
		basestation.Config{
			Thresholds:    radio.Thresholds{TextDB: -1000, SketchDB: -900, ImageDB: -800},
			FanOutWorkers: workers,
		})
	defer bs.Close()

	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		conn, err := radioNet.Attach(id)
		if err != nil {
			b.Fatal(err)
		}
		go func() { // drain the client's inbox
			for range conn.Recv() {
			}
		}()
		p := profile.New(id)
		p.Interests.SetString("media", "any")
		if _, err := bs.Join(p, 30+float64(i%7), 1); err != nil {
			b.Fatal(err)
		}
	}

	payload := []byte("status: rally point two is clear")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bs.UplinkEvent("w0", "chat", `media == "any"`, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaseStationFanOut(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			benchFanOut(b, n, 0)
		})
	}
}

// BenchmarkBaseStationFanOutSequential pins the pool to one worker so
// the parallel speedup of the default configuration is measurable with
// everything else (caches, pooling) held constant.
func BenchmarkBaseStationFanOutSequential(b *testing.B) {
	b.Run("clients=64", func(b *testing.B) {
		benchFanOut(b, 64, 1)
	})
}

// BenchmarkBaseStationImageFanOut measures one collected wired-side
// 64×64 image share delivered to 12 wireless clients, 4 per tier (full
// image, sketch, text): collection, decode and re-encode, the tier
// transforms and every client's unicasts.  It is the micro-bench
// behind the pipeline benchmark's stage.transform number.
func BenchmarkBaseStationImageFanOut(b *testing.B) {
	wiredNet := transport.NewSimNet(transport.SimNetConfig{Seed: 1})
	radioNet := transport.NewSimNet(transport.SimNetConfig{Seed: 2})
	defer wiredNet.Close()
	defer radioNet.Close()
	bsWired, err := wiredNet.Attach("bs")
	if err != nil {
		b.Fatal(err)
	}
	bsRF, err := radioNet.Attach("bs")
	if err != nil {
		b.Fatal(err)
	}
	src, err := wiredNet.Attach("src")
	if err != nil {
		b.Fatal(err)
	}
	// Every client is at the full-image tier by SIR; declared
	// modality preferences put 4 on sketch and 4 on text.
	bs := basestation.New("bs", bsWired, bsRF, radio.NewChannel(radio.Params{}),
		basestation.Config{Thresholds: radio.Thresholds{TextDB: -1000, SketchDB: -900, ImageDB: -800}})
	defer bs.Close()

	// Clients count arrivals on the delivering goroutine; the share
	// is done when its last datagram lands.
	var got, want atomic.Int64
	done := make(chan struct{}, 1)
	count := func(transport.Packet) {
		if got.Add(1) == want.Load() {
			done <- struct{}{}
		}
	}
	for i, pref := range []string{"", "sketch", "text"} {
		for j := 0; j < 4; j++ {
			id := fmt.Sprintf("w%d-%d", i, j)
			if _, err := radioNet.AttachHandler(id, count); err != nil {
				b.Fatal(err)
			}
			p := profile.New(id)
			p.Interests.SetString("media", "any")
			if pref != "" {
				p.Preferences.SetString("modality", pref)
			}
			if _, err := bs.Join(p, 30+float64(j), 1); err != nil {
				b.Fatal(err)
			}
		}
	}

	// The wired share's announce and packets, framed once: the base
	// station purges a collection after delivering it, so the same
	// datagrams make a fresh share every iteration.
	obj, err := media.EncodeImage(wavelet.Medical(64, 64, 1), "field photo")
	if err != nil {
		b.Fatal(err)
	}
	meta, packets, err := apps.ShareImage("img", obj, 16)
	if err != nil {
		b.Fatal(err)
	}
	var share [][]byte
	frame := func(m *message.Message) {
		m.Sender, m.Seq = "src", uint32(len(share)+1)
		f, err := message.Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		share = append(share, message.WrapWhole(f))
	}
	frame(&message.Message{Kind: message.KindEvent, Body: apps.EncodeImageMeta(meta),
		Attrs: selector.Attributes{
			message.AttrApp:    selector.S(apps.AppImageViewer),
			message.AttrObject: selector.S("img"),
		}})
	for i, p := range packets {
		rp := rtp.Packet{PayloadType: 96, Seq: uint16(i), SSRC: 1, Payload: p}
		frame(&message.Message{Kind: message.KindData, Body: rp.Marshal(),
			Attrs: selector.Attributes{
				message.AttrApp:    selector.S(apps.AppImageViewer),
				message.AttrObject: selector.S("img"),
				message.AttrLevel:  selector.N(float64(i)),
			}})
	}
	// 4 × (announce + 16 packets) + 4 sketches + 4 texts, one datagram each.
	const perShare = 4*(1+16) + 4 + 4
	deliver := func(n int) {
		want.Store(int64(perShare * n))
		for _, d := range share {
			if err := src.Multicast(d); err != nil {
				b.Fatal(err)
			}
		}
		<-done
	}

	deliver(1) // warm-up
	if st := bs.Stats(); st.DownlinkUnicasts != perShare {
		b.Fatalf("downlink unicasts per share = %d, want %d", st.DownlinkUnicasts, perShare)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver(i + 2)
	}
}

// BenchmarkCoordinatorNack answers one gap-repair NACK per op from an
// archiving coordinator holding 20k frames from 8 senders: the request
// asks for one sender's last 4 frames, and the op ends when all 4
// replayed frames have reached the requester.  It is the micro-bench
// behind the pipeline benchmark's lossy-repair cpu_us_per_item.
func BenchmarkCoordinatorNack(b *testing.B) {
	const senders, perSender, replayed = 8, 2500, 4
	net := transport.NewSimNet(transport.SimNetConfig{Seed: 1})
	defer net.Close()
	cc, err := net.Attach("coordinator")
	if err != nil {
		b.Fatal(err)
	}
	coord := core.NewCoordinator(cc, session.Group{Objective: "bench-nack"})
	defer coord.Close()
	conns := make([]transport.Conn, senders)
	for i := range conns {
		if conns[i], err = net.Attach(fmt.Sprintf("sender-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	for seq := 1; seq <= perSender; seq++ {
		for _, c := range conns {
			frame, err := message.Encode(&message.Message{
				Kind: message.KindEvent, Sender: c.ID(), Seq: uint32(seq),
				Attrs: selector.Attributes{message.AttrApp: selector.S("chat")},
				Body:  []byte(fmt.Sprintf("line %d", seq)),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Unicast("coordinator", message.WrapWhole(frame)); err != nil {
				b.Fatal(err)
			}
		}
		// Pace the senders so the coordinator's inbox never overflows.
		for seq%64 == 0 && coord.ArchivedEvents() < seq*senders {
			time.Sleep(time.Millisecond)
		}
	}
	for coord.ArchivedEvents() < senders*perSender {
		time.Sleep(time.Millisecond)
	}

	// The history-request control a replica's RequestHistoryFrom sends.
	req, err := net.Attach("replica")
	if err != nil {
		b.Fatal(err)
	}
	nack, err := message.Encode(&message.Message{
		Kind: message.KindControl, Sender: req.ID(), Seq: 1,
		Attrs: selector.Attributes{
			"ctrl":       selector.S("history-request"),
			"for-sender": selector.S("sender-3"),
			"after-seq":  selector.N(perSender - replayed),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	datagram := message.WrapWhole(nack)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := req.Unicast("coordinator", datagram); err != nil {
			b.Fatal(err)
		}
		for n := 0; n < replayed; n++ {
			<-req.Recv()
		}
	}
}

func BenchmarkSelectorParse(b *testing.B) {
	src := `media == "video" and (encoding in ["MPEG2", "JPEG"] or exists(transcode)) and size <= 1048576`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := selector.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessageEncodeDecode(b *testing.B) {
	m := &message.Message{
		Kind:     message.KindData,
		Sender:   "client-7",
		Seq:      99,
		Selector: `media == "image"`,
		Attrs: selector.Attributes{
			"media": selector.S("image"),
			"size":  selector.N(4096),
		},
		Body: make([]byte, 1024),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := message.Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := message.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSNMPGetRoundTrip(b *testing.B) {
	host := hostagent.NewHost("bench")
	host.Set(hostagent.ParamCPULoad, 50)
	client := snmp.NewClient(
		&snmp.AgentRoundTripper{Agent: hostagent.NewAgent(host)}, snmp.V2c, "public")
	oid := hostagent.OIDCPULoad.Append(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := client.GetNumber(oid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaveletEncode128(b *testing.B) {
	im := wavelet.Medical(128, 128, 1)
	b.SetBytes(int64(im.W * im.H))
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.Encode(im, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaveletDecode128(b *testing.B) {
	im := wavelet.Medical(128, 128, 1)
	stream, err := wavelet.Encode(im, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(stream)))
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.Decode(stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaveletDecodePrefix(b *testing.B) {
	im := wavelet.Medical(128, 128, 1)
	stream, err := wavelet.Encode(im, 0)
	if err != nil {
		b.Fatal(err)
	}
	prefix := stream[:len(stream)/8]
	b.SetBytes(int64(len(prefix)))
	for i := 0; i < b.N; i++ {
		if _, err := wavelet.Decode(prefix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchExtract(b *testing.B) {
	im := wavelet.Medical(512, 512, 1)
	b.SetBytes(int64(im.W * im.H))
	for i := 0; i < b.N; i++ {
		sk := wavelet.ExtractSketch(im, "bench")
		if _, err := sk.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSIRComputation(b *testing.B) {
	ch := radio.NewChannel(radio.Params{})
	for i := 0; i < 10; i++ {
		ch.Join(fmt.Sprintf("c%d", i), 20+float64(i)*15, 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ch.SIRdB("c0"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInferenceDecide(b *testing.B) {
	engine := inference.New(profile.MustContract("bench",
		profile.Constraint{Param: inference.StateCPULoad, Min: 0, Max: 90, Hard: true}))
	if err := inference.DefaultPolicy(engine, 16, 64_000, 16_000); err != nil {
		b.Fatal(err)
	}
	state := selector.Attributes{
		inference.StateCPULoad:    selector.N(72),
		inference.StatePageFaults: selector.N(55),
		inference.StateBandwidth:  selector.N(120_000),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := engine.Decide(state)
		if d.EffectiveBudget(16) == 16 {
			b.Fatal("expected constrained budget")
		}
	}
}

func BenchmarkFragmentSplitReassemble(b *testing.B) {
	payload := make([]byte, 32<<10)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		frags, err := message.Split(uint64(i), payload, 1200)
		if err != nil {
			b.Fatal(err)
		}
		r := message.NewReassembler()
		for _, f := range frags {
			if _, _, err := r.Add(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTextToSpeechTransform(b *testing.B) {
	reg := media.DefaultRegistry()
	txt := media.NewText("evacuation route bravo is clear, proceed to rally point two")
	b.SetBytes(int64(txt.Size()))
	for i := 0; i < b.N; i++ {
		if _, err := reg.Transmode(txt, media.KindSpeech); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaveletFilters compares the two reversible filters on the
// two content classes they specialize in.
func BenchmarkWaveletFilters(b *testing.B) {
	smooth := wavelet.Medical(128, 128, 1)
	blocky := wavelet.Blocks(128, 128, 16, 1)
	for _, tc := range []struct {
		name   string
		im     *wavelet.Image
		filter wavelet.Filter
	}{
		{"53-smooth", smooth, wavelet.Filter53},
		{"haar-smooth", smooth, wavelet.FilterHaar},
		{"53-blocky", blocky, wavelet.Filter53},
		{"haar-blocky", blocky, wavelet.FilterHaar},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var size int
			b.SetBytes(int64(tc.im.W * tc.im.H))
			for i := 0; i < b.N; i++ {
				stream, err := wavelet.EncodeFilter(tc.im, 0, tc.filter)
				if err != nil {
					b.Fatal(err)
				}
				size = len(stream)
			}
			b.ReportMetric(float64(size), "stream-bytes")
		})
	}
}

// BenchmarkElementAgentWalk measures a full interfaces-group walk
// against the network-element agent (the management station's
// periodic sweep).
func BenchmarkElementAgentWalk(b *testing.B) {
	rows := make([]hostagent.IfEntry, 8)
	for i := range rows {
		rows[i] = hostagent.IfEntry{Index: i + 1, Descr: fmt.Sprintf("if%d", i),
			SpeedBps: 1e9, InOctets: uint64(i) * 1000}
	}
	agent, err := hostagent.NewElementAgent("bench", func() []hostagent.IfEntry { return rows })
	if err != nil {
		b.Fatal(err)
	}
	client := snmp.NewClient(&snmp.AgentRoundTripper{Agent: agent}, snmp.V2c, "")
	root := snmp.MustOID("1.3.6.1.2.1.2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := client.Walk(root, func(snmp.VarBind) bool { count++; return true }); err != nil {
			b.Fatal(err)
		}
		if count == 0 {
			b.Fatal("empty walk")
		}
	}
}
