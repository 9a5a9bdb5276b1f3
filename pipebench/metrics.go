package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"adaptiveqos/internal/basestation"
	"adaptiveqos/internal/core"
	"adaptiveqos/internal/metrics"
	"adaptiveqos/internal/obs"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// set (a test keeps them in step).
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"delivery_p50_ms", "ms", "lower"},
	{"delivered_ratio", "ratio", "higher"},
	{"cpu_us_per_item", "us", "lower"},
	{"allocs_per_item", "count", "lower"},
	{"heap_retained_mb", "MB", "lower"},
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.publish_us.p50", "us", "lower"},
		{"core.publish_us.p99", "us", "lower"},
		{"core.filtered_ratio", "ratio", "lower"},
		{"core.decode_errors", "count", "lower"},
		{"transport.frames_per_item", "frames/item", "lower"},
		{"transport.bytes_per_item", "B/item", "lower"},
		{"transport.send_us.p99", "us", "lower"},
		{"transport.overflow", "count", "lower"},
		{"transport.link_drops", "count", "lower"},
		{"message.frames_per_message", "frames/msg", "lower"},
		{"message.encodebuf_reuse_ratio", "ratio", "higher"},
		{"selector.cache_hit_ratio", "ratio", "higher"},
		{"profile.flatten_reuse_ratio", "ratio", "higher"},
		{"matchindex.candidates_per_event", "count", "lower"},
		{"matchindex.fallbacks", "count", "lower"},
		{"dispatch.jobs_per_batch", "count", "lower"},
		{"dispatch.queue_drops", "count", "lower"},
		{"basestation.downlink_per_item", "msgs/item", "lower"},
		{"basestation.forward_full", "count", "higher"},
		{"basestation.forward_sketch", "count", "lower"},
		{"basestation.forward_text", "count", "lower"},
		{"basestation.uplink_dropped", "count", "lower"},
		{"basestation.rf_send_us.p99", "us", "lower"},
		{"basestation.join_us", "us", "lower"},
		{"registry.collect_evictions", "count", "lower"},
		{"inference.adapt_us.p99", "us", "lower"},
		{"inference.budget_changes", "count", "lower"},
		{"media.encode_us.p50", "us", "lower"},
		{"media.encode_us.p99", "us", "lower"},
		{"rtp.loss_fraction", "ratio", "lower"},
		{"rtp.jitter_ms", "ms", "lower"},
		{"repair.requests_per_kitem", "count", "lower"},
		{"repair.success_ratio", "ratio", "higher"},
		{"repair.abandoned", "count", "lower"},
		{"archive.duplicate_drops", "count", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_pause_ms", "ms", "lower"},
		{"delivery.p99_ms", "ms", "lower"},
		{"gen.late_max_ms", "ms", "lower"},
		{"gen.late_p99_ms", "ms", "lower"},
	}
	for _, st := range obs.Stages() {
		defs = append(defs,
			metricDef{"stage." + st.String() + ".count", "count", "lower"},
			metricDef{"stage." + st.String() + ".p50_us", "us", "lower"},
			metricDef{"stage." + st.String() + ".p99_us", "us", "lower"})
	}
	for _, l := range layerNames {
		defs = append(defs, metricDef{"self_us_per_item." + l, "us", "lower"})
	}
	return append(defs, metricDef{"trace.overhead_pct", "%", "lower"})
}()

// snapshot is every counter the metrics are deltas of.
type snapshot struct {
	cpu                 time.Duration
	mem                 runtime.MemStats
	ctr                 map[string]uint64
	clients             []core.Stats
	bs                  basestation.Stats
	overflow, linkDrops uint64
	stages              []obs.HistogramSnapshot
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func take(t *topology) snapshot {
	var s snapshot
	runtime.ReadMemStats(&s.mem)
	s.cpu = processCPU()
	s.ctr = metrics.Counters()
	for _, c := range t.clients {
		s.clients = append(s.clients, c.Stats())
	}
	s.bs = t.bs.Stats()
	wired := []string{bsID}
	for i := 0; i < t.in.spec.wired; i++ {
		wired = append(wired, wiredID(i))
	}
	if t.coord != nil {
		wired = append(wired, coordinatorID)
	}
	for _, id := range wired {
		st := t.wiredNet.Stats(id)
		s.overflow += st.Overflow
		s.linkDrops += st.Dropped
	}
	// Radio links between clients are down by design, so only inbox
	// overflow counts on the radio segment.
	s.overflow += t.radioNet.Stats(bsID).Overflow
	for i := 0; i < t.in.spec.wireless; i++ {
		s.overflow += t.radioNet.Stats(wirelessID(i)).Overflow
	}
	for _, st := range obs.Stages() {
		s.stages = append(s.stages, obs.StageHistogram(st).Snapshot())
	}
	return s
}

func quantileNS(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]int64(nil), v...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, min(k, len(sorted)-1))])
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// layerMetrics derives the per-layer figures of a traced phase.
func layerMetrics(s *harness, before, after snapshot, items int, overheadPct, p99 float64) map[string]metric {
	t, rec := s.t, s.rec
	out := map[string]metric{}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.name == name {
				out[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
		panic("undeclared per-layer metric " + name)
	}
	ctr := func(name string) uint64 { return after.ctr[name] - before.ctr[name] }
	n := float64(items)

	var recv, filtered, decodeErr uint64
	for i := range after.clients {
		recv += after.clients[i].EventsReceived - before.clients[i].EventsReceived
		filtered += after.clients[i].EventsFiltered - before.clients[i].EventsFiltered
		decodeErr += after.clients[i].DecodeErrors - before.clients[i].DecodeErrors
	}
	set("core.publish_us.p50", rec.quantileUS(spanPublish, 0.50))
	set("core.publish_us.p99", rec.quantileUS(spanPublish, 0.99))
	set("core.filtered_ratio", ratio(filtered, recv+filtered))
	set("core.decode_errors", float64(decodeErr))

	agg := rec.aggregates()
	tr, bsa := agg[layerTransport], agg[layerBaseStation]
	set("transport.frames_per_item", float64(tr.frames+bsa.frames)/n)
	set("transport.bytes_per_item", float64(tr.bytes+bsa.bytes)/n)
	set("transport.send_us.p99", rec.quantileUS(spanClientSend, 0.99))
	set("transport.overflow", float64(after.overflow-before.overflow))
	set("transport.link_drops", float64(after.linkDrops-before.linkDrops))
	set("message.frames_per_message", ratio(tr.frames+bsa.frames, tr.messages+bsa.messages))
	reuse := ctr(metrics.CtrEncodeBufReuse)
	set("message.encodebuf_reuse_ratio", ratio(reuse, reuse+ctr(metrics.CtrEncodeBufAlloc)))

	hit := ctr(metrics.CtrSelectorCacheHit)
	set("selector.cache_hit_ratio", ratio(hit, hit+ctr(metrics.CtrSelectorCacheMiss)))
	fr := ctr(metrics.CtrFlattenReuse)
	set("profile.flatten_reuse_ratio", ratio(fr, fr+ctr(metrics.CtrFlattenBuild)))

	// Every light item from a wired sender is one event the base
	// station's downlink relay matches.
	var relayed uint64
	for _, it := range s.items[len(s.items)-items:] {
		if it.kind != kindImage && t.isWired(it.sender) {
			relayed++
		}
	}
	set("matchindex.candidates_per_event", ratio(ctr(metrics.CtrMatchIndexCandidates), relayed))
	set("matchindex.fallbacks", float64(ctr(metrics.CtrMatchIndexFallback)))
	set("dispatch.jobs_per_batch", ratio(ctr(metrics.CtrDispatchJobs), ctr(metrics.CtrDispatchBatches)))
	set("dispatch.queue_drops", float64(ctr(metrics.CtrDispatchQueueDrops)))

	set("basestation.downlink_per_item", float64(after.bs.DownlinkUnicasts-before.bs.DownlinkUnicasts)/n)
	set("basestation.forward_full", float64(after.bs.ForwardFullImage-before.bs.ForwardFullImage))
	set("basestation.forward_sketch", float64(after.bs.ForwardSketch-before.bs.ForwardSketch))
	set("basestation.forward_text", float64(after.bs.ForwardText-before.bs.ForwardText))
	set("basestation.uplink_dropped", float64(after.bs.UplinkDropped-before.bs.UplinkDropped))
	set("basestation.rf_send_us.p99", rec.quantileUS(spanRFSend, 0.99))
	set("basestation.join_us", rec.quantileUS(spanJoin, 0.50))
	set("registry.collect_evictions", float64(ctr(metrics.CtrCollectEvictions)))

	set("inference.adapt_us.p99", rec.quantileUS(spanAdapt, 0.99))
	set("inference.budget_changes", float64(s.budgetChg))
	set("media.encode_us.p50", rec.quantileUS(spanEncode, 0.50))
	set("media.encode_us.p99", rec.quantileUS(spanEncode, 0.99))

	// RTP reception at wired receivers, over every sender they heard.
	var expected, unique uint64
	var jitter float64
	var pairs int
	senders := []string{bsID}
	for i := 0; i < t.in.spec.wired; i++ {
		senders = append(senders, wiredID(i))
	}
	for r := 0; r < t.in.spec.wired; r++ {
		for _, sender := range senders {
			st, ok := t.clients[r].ReceptionReport(sender)
			if !ok {
				continue
			}
			expected += st.ExpectedTotal
			unique += min(st.Unique, st.ExpectedTotal)
			jitter += st.Jitter
			pairs++
		}
	}
	set("rtp.loss_fraction", ratio(expected-unique, expected))
	if pairs > 0 {
		jitter /= float64(pairs)
	}
	set("rtp.jitter_ms", jitter)

	req := ctr(metrics.CtrRepairRequests)
	set("repair.requests_per_kitem", float64(req)/n*1000)
	ok := ctr(metrics.CtrRepairSuccess)
	set("repair.success_ratio", ratio(ok, ok+ctr(metrics.CtrRepairAbandoned)))
	set("repair.abandoned", float64(ctr(metrics.CtrRepairAbandoned)))
	set("archive.duplicate_drops", float64(ctr(metrics.CtrArchiveDupDrops)))

	set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	set("delivery.p99_ms", p99)
	var lateMax int64
	for _, l := range s.late {
		lateMax = max(lateMax, l)
	}
	set("gen.late_max_ms", float64(lateMax)/1e6)
	set("gen.late_p99_ms", quantileNS(s.late, 0.99)/1e6)

	for i, st := range obs.Stages() {
		d := after.stages[i]
		b := before.stages[i]
		d.Count -= b.Count
		d.Sum -= b.Sum
		for j := range d.Buckets {
			d.Buckets[j] -= b.Buckets[j]
		}
		set("stage."+st.String()+".count", float64(d.Count))
		set("stage."+st.String()+".p50_us", d.Quantile(0.50)/1e3)
		set("stage."+st.String()+".p99_us", d.Quantile(0.99)/1e3)
	}
	for l, name := range layerNames {
		set("self_us_per_item."+name, float64(agg[l].selfNS)/1e3/n)
	}
	set("trace.overhead_pct", overheadPct)
	return out
}
