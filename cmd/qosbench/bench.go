package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adaptiveqos/internal/basestation"
	"adaptiveqos/internal/clock"
	"adaptiveqos/internal/message"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/radio"
	"adaptiveqos/internal/registry"
	"adaptiveqos/internal/replay"
	"adaptiveqos/internal/scenario"
	"adaptiveqos/internal/selector"
	"adaptiveqos/internal/slo"
	"adaptiveqos/internal/timeline"
	"adaptiveqos/internal/transport"
)

// benchResult is one benchmark's record in BENCH_results.json.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchReport is the BENCH_results.json document: the per-PR perf
// trajectory of the hot dispatch and instrumentation paths.
type benchReport struct {
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// microBenches is the suite qosbench runs for the perf trajectory:
// the dispatch fast path (DESIGN.md §7) and the observability layer's
// enabled/disabled costs (DESIGN.md §8).
func microBenches() []struct {
	name string
	fn   func(b *testing.B)
} {
	dispatchSel := `media == "video" and encoding in ["MPEG2", "JPEG"] and size <= 1048576 and exists(cap.display)`
	dispatchProfile := selector.Attributes{
		"media":       selector.S("video"),
		"encoding":    selector.S("JPEG"),
		"size":        selector.N(500_000),
		"cap.display": selector.B(true),
	}
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"selector-match-cached", func(b *testing.B) {
			m := &message.Message{Kind: message.KindEvent, Selector: dispatchSel}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !m.MatchProfile(dispatchProfile) {
					b.Fatal("should match")
				}
			}
		}},
		{"profile-flatten-memoized", func(b *testing.B) {
			pm := profile.NewManager("bench")
			pm.SetInterest("media", selector.S("video"))
			pm.SetPreference("modality", selector.S("image"))
			pm.SetState("cpu-load", selector.N(40))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if flat, _ := pm.FlatSnapshot(); len(flat) == 0 {
					b.Fatal("empty flatten")
				}
			}
		}},
		{"message-wrap-pooled", func(b *testing.B) {
			m := &message.Message{
				Kind: message.KindEvent, Sender: "client-7", Seq: 99,
				Selector: `media == "image"`,
				Attrs:    selector.Attributes{"media": selector.S("image")},
				Body:     make([]byte, 1024),
			}
			env := &message.Enveloper{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := env.WrapMessage(m); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"span-disabled", func(b *testing.B) {
			obs.SetEnabled(false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp := obs.StartStage(uint64(i), obs.StageMatch)
				sp.End()
			}
		}},
		{"span-enabled", func(b *testing.B) {
			obs.SetEnabled(true)
			defer obs.SetEnabled(false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp := obs.StartStage(uint64(i), obs.StageMatch)
				sp.End()
			}
		}},
		{"histogram-observe", func(b *testing.B) {
			var h obs.Histogram
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Observe(int64(i))
			}
		}},
		{"basestation-fanout-8", func(b *testing.B) { benchFanOut(b, 8) }},
		{"basestation-fanout-64", func(b *testing.B) { benchFanOut(b, 64) }},
		{"registry-single-64", func(b *testing.B) { benchRegistry(b, 1, 64) }},
		{"registry-sharded-64", func(b *testing.B) { benchRegistry(b, 16, 64) }},
		{"registry-single-512", func(b *testing.B) { benchRegistry(b, 1, 512) }},
		{"registry-sharded-512", func(b *testing.B) { benchRegistry(b, 16, 512) }},
		{"match-1k-index", func(b *testing.B) { benchMatchScaling(b, 1_000, true) }},
		{"match-1k-brute", func(b *testing.B) { benchMatchScaling(b, 1_000, false) }},
		{"match-10k-index", func(b *testing.B) { benchMatchScaling(b, 10_000, true) }},
		{"match-10k-brute", func(b *testing.B) { benchMatchScaling(b, 10_000, false) }},
		{"match-100k-index", func(b *testing.B) { benchMatchScaling(b, 100_000, true) }},
		{"match-100k-brute", func(b *testing.B) { benchMatchScaling(b, 100_000, false) }},
		{"slo-eval", func(b *testing.B) {
			// The enabled SLO hot path: one classified observation into
			// the sliding-window ring (DESIGN.md §13).
			e := slo.NewEngine(slo.SpecForClass("interactive"))
			e.Observe("bench-client", slo.ObjDelivery, float64(time.Millisecond))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Observe("bench-client", slo.ObjDelivery, float64(time.Millisecond))
			}
		}},
		{"slo-observe-disabled", func(b *testing.B) {
			// The disabled package-level entry point: one atomic load.
			slo.SetEnabled(false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				slo.ObserveDelivery("bench-client", time.Millisecond)
			}
		}},
		{"timeline-snapshot", benchTimelineSnapshot},
		{"timeline-query", benchTimelineQuery},
		{"sim-10k", func(b *testing.B) { benchScenario(b, 10_000) }},
		{"sim-100k", func(b *testing.B) { benchScenario(b, 100_000) }},
		{"replay-grid", benchReplayGrid},
		{"record-append", func(b *testing.B) {
			// One session-record event offered to the bounded writer
			// (JSONL encoding happens on the drain goroutine).
			r := obs.NewRecorder(io.Discard, "bench", 0)
			defer r.Close()
			ev := obs.RecEvent{Type: obs.RecTypeSpan, AtNS: 1, Msg: "0000000000000abc", Stage: "deliver", NS: 250}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Append(ev)
			}
		}},
	}
}

// benchTimelineFixture builds a virtual-clock timeline tracking a
// realistic series mix (DESIGN.md §16): 16 counters, 16 gauges, 8
// histograms and 2 derived series.
func benchTimelineFixture() (*timeline.Timeline, *clock.Virtual, []*metrics.Counter, []*obs.Histogram) {
	clk := clock.NewVirtual(clock.DefaultEpoch)
	tl := timeline.New(timeline.Config{Window: time.Second, Retention: 128, Clock: clk})
	ctrs := make([]*metrics.Counter, 16)
	for i := range ctrs {
		ctrs[i] = &metrics.Counter{}
		tl.TrackCounter(fmt.Sprintf("bench.ctr.%d", i), ctrs[i])
	}
	for i := 0; i < 16; i++ {
		g := &obs.Gauge{}
		g.Set(float64(i))
		tl.TrackGauge(fmt.Sprintf("bench.gauge.%d", i), g)
	}
	hists := make([]*obs.Histogram, 8)
	for i := range hists {
		hists[i] = &obs.Histogram{}
		tl.TrackHistogram(fmt.Sprintf("bench.hist.%d", i), hists[i])
	}
	tl.TrackFunc("bench.derived.0", func() float64 { return 1 })
	tl.TrackFunc("bench.derived.1", func() float64 { return 2 })
	return tl, clk, ctrs, hists
}

// benchTimelineSnapshot measures one op = closing one timeline window:
// snapshotting every tracked series into the ring, deriving counter
// deltas and windowed histogram quantiles (DESIGN.md §16).  The
// steady-state window close must stay allocation-free.
func benchTimelineSnapshot(b *testing.B) {
	tl, clk, ctrs, hists := benchTimelineFixture()
	for _, c := range ctrs {
		c.Add(3)
	}
	for _, h := range hists {
		h.Observe(250_000)
		h.Observe(9_000_000)
	}
	clk.Advance(time.Second)
	tl.SampleNow() // warm the ring so iteration 0 isn't special
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(time.Second)
		tl.SampleNow()
	}
}

// benchTimelineQuery measures one op = a filtered Query over a full
// ring: the /debug/timeline and SLO-attribution read path
// (DESIGN.md §16), including per-window rate and quantile assembly.
func benchTimelineQuery(b *testing.B) {
	tl, clk, ctrs, hists := benchTimelineFixture()
	for w := 0; w < 128; w++ {
		for _, c := range ctrs {
			c.Add(uint64(w % 7))
		}
		for _, h := range hists {
			h.Observe(int64(w%100) * 10_000)
		}
		clk.Advance(time.Second)
		tl.SampleNow()
	}
	q := timeline.Query{Contains: []string{"bench.hist.", "bench.ctr."}, MaxWindows: 16}
	if len(tl.Query(q)) != 24 {
		b.Fatal("unexpected query shape")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tl.Query(q)) != 24 {
			b.Fatal("wrong series count")
		}
	}
}

// benchReplayGrid measures one op = a full counterfactual policy sweep
// (DESIGN.md §15): a 2-sender, 3-second lossy workload replayed through
// the virtual-clock SimNet once per candidate in an 8-policy grid,
// scored and ranked.  This is the end-to-end cost a qosreplay user pays
// per 8 candidates.
func benchReplayGrid(b *testing.B) {
	w := &replay.Workload{
		StartNS:   1_000_000_000,
		Senders:   []string{"alice", "bob"},
		Receivers: []string{"alice", "bob", "carol"},
		MeanLoss:  0.35,
	}
	seq := map[string]uint64{}
	for i := 0; i < 120; i++ {
		at := w.StartNS + int64(i)*25_000_000
		for _, sender := range w.Senders {
			seq[sender]++
			w.Publishes = append(w.Publishes, replay.Publish{
				AtNS: at, Sender: sender, Seq: seq[sender],
				Kind: "event", Size: 128,
			})
		}
		w.EndNS = at + 2_000_000
	}
	for i := 0; i < 30; i++ {
		w.SIR = append(w.SIR, replay.SIRSample{
			AtNS: w.StartNS + int64(i)*100_000_000, Client: "w0",
			SIRdB: []float64{-2, 1, 3, 5, 7}[i%5],
		})
	}
	grid := replay.DefaultGrid()[:8]
	cfg := replay.SimConfig{Seed: 1, Loss: -1}
	spec := slo.SpecForClass("interactive")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked := replay.Sweep(w, grid, cfg, spec)
		if len(ranked) != len(grid) {
			b.Fatal("sweep dropped candidates")
		}
	}
}

// benchScenario measures one op = pushing a 10-second simulated
// lecture-hall window through the virtual-clock SimNet at the given
// population (DESIGN.md §14).  ns/op is the wall cost of that fixed
// simulated window, so the 10k → 100k ratio is the virtual-clock
// SimNet scaling curve.
func benchScenario(b *testing.B, clients int) {
	cfg := scenario.Config{
		Kind:     scenario.LectureHall,
		Clients:  clients,
		Seed:     1,
		Duration: 10 * time.Second,
		Rate:     2,
		Link: transport.Link{
			Delay:  20 * time.Millisecond,
			Jitter: 10 * time.Millisecond,
			Loss:   0.01,
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered == 0 {
			b.Fatal("nothing delivered")
		}
	}
}

// benchMatchScaling measures one selector match against a population of
// the given size, with the inverted predicate index on or off
// (DESIGN.md §12).  Region cardinality grows with the population so the
// matching subset is always 8 clients: a flat index-on series across
// 1k → 100k against a linearly growing brute series is the tentpole's
// scaling claim.
func benchMatchScaling(b *testing.B, clients int, indexed bool) {
	r := registry.NewWithIndex(16, indexed)
	medias := []string{"video", "audio", "image", "text"}
	for i := 0; i < clients; i++ {
		p := profile.New(fmt.Sprintf("w%d", i))
		p.Interests.SetString("media", medias[i%len(medias)])
		p.Interests.SetNumber("region", float64(i%(clients/8)))
		r.Put(p)
	}
	sel := selector.MustCompile(`region == 17 and exists(media)`)
	if got := len(r.MatchIDs(sel)); got != 8 { // also drains the join-time dirty set
		b.Fatalf("matching subset = %d clients, want 8", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ids := r.MatchIDs(sel); len(ids) != 8 {
			b.Fatal("wrong match count")
		}
	}
}

// benchRegistry mirrors BenchmarkRegistryContention from the registry
// package: the parallel assess + snapshot hot path, sharded vs the
// single-lock baseline (shards=1).
func benchRegistry(b *testing.B, shards, clients int) {
	r := registry.New(shards)
	ids := make([]string, clients)
	for i := range ids {
		id := fmt.Sprintf("w%d", i)
		ids[i] = id
		p := profile.New(id)
		p.Interests.SetString("media", "any")
		r.Put(p)
	}
	var next atomic.Uint32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 7919
		for pb.Next() {
			id := ids[i%clients]
			a := registry.Assessment{SIRdB: float64((i/(clients*8))%17) - 8, Power: 1, Distance: 50}
			i++
			if err := r.PutAssessment(id, a); err != nil {
				b.Fatal(err)
			}
			if _, _, ok := r.FlatSnapshot(id); !ok {
				b.Fatal("lost client")
			}
		}
	})
}

// benchFanOut mirrors BenchmarkBaseStationFanOut from the repo bench
// suite: one uplink event relayed to n wireless clients.
func benchFanOut(b *testing.B, n int) {
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
		basestation.Config{Thresholds: radio.Thresholds{TextDB: -1000, SketchDB: -900, ImageDB: -800}})
	defer bs.Close()

	for i := 0; i < n; i++ {
		id := fmt.Sprintf("w%d", i)
		conn, err := radioNet.Attach(id)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
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

// runBenchSuite runs the micro-benchmark suite, prints an aligned
// text table, and writes the machine-readable report to path.
func runBenchSuite(path string) error {
	report := benchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("%-26s %12s %12s %10s %12s\n", "benchmark", "iterations", "ns/op", "B/op", "allocs/op")
	for _, bench := range microBenches() {
		r := testing.Benchmark(bench.fn)
		res := benchResult{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		report.Benchmarks = append(report.Benchmarks, res)
		fmt.Printf("%-26s %12d %12.1f %10d %12d\n",
			res.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}
