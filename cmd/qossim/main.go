// Command qossim runs seeded large-scale collaboration scenarios on
// the simulated network (transport.SimNet on a clock.Virtual, so every
// delivery is a virtual-time event): a 100k-client session covering
// simulated minutes completes in wall-clock minutes on one box, and
// the same seed reproduces the run byte for byte.
//
// Example — the paper's lecture-hall shape at full scale:
//
//	qossim -scenario lecture -clients 100000 -sim-duration 2m -rate 2 \
//	       -delay 20ms -jitter 10ms -loss 0.01 -json
//
// It prints per-time-bucket p99 delivery latency and loss curves plus
// overall quantiles, and with -json emits the full scenario.Result
// (including the trace event hash used by the determinism CI gate).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"adaptiveqos/internal/scenario"
	"adaptiveqos/internal/timeline"
	"adaptiveqos/internal/transport"
)

// exportTimeline writes the scenario's per-window series to path —
// CSV when the extension says so, JSONL otherwise.  The bytes are a
// pure function of the scenario config, so the CI determinism gate can
// compare two same-seed exports directly.
func exportTimeline(path string, tl *timeline.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return tl.WriteCSV(f, timeline.Query{})
	}
	return tl.WriteJSONL(f, timeline.Query{})
}

func main() {
	var (
		kind    = flag.String("scenario", "lecture", "workload: flash|lecture|churn|diurnal")
		clients = flag.Int("clients", 1000, "subscriber population")
		pubs    = flag.Int("publishers", 0, "broadcasting population (0 = scenario default)")
		seed    = flag.Int64("seed", 1, "rng seed for the network and workload")
		simDur  = flag.Duration("sim-duration", time.Minute, "simulated session length")
		rate    = flag.Float64("rate", 2, "per-publisher publish rate, msgs/s")
		payload = flag.Int("payload", 256, "published frame size, bytes")
		delay   = flag.Duration("delay", 20*time.Millisecond, "per-client link propagation delay")
		jitter  = flag.Duration("jitter", 10*time.Millisecond, "per-client link jitter bound")
		loss    = flag.Float64("loss", 0.01, "per-client link loss probability")
		bwBps   = flag.Float64("bandwidth-bps", 0, "per-client link bandwidth, bits/s (0 = unlimited)")
		buckets = flag.Int("curve-buckets", 12, "time buckets in the latency/loss curves")
		jsonOut = flag.Bool("json", false, "emit the full Result as JSON")
		tlPath  = flag.String("timeline", "", "export the run's per-window timeline to this file (.csv = CSV, else JSONL)")
	)
	flag.Parse()

	cfg := scenario.Config{
		Kind:         scenario.Kind(*kind),
		Clients:      *clients,
		Publishers:   *pubs,
		Seed:         *seed,
		Duration:     *simDur,
		Rate:         *rate,
		PayloadBytes: *payload,
		Link: transport.Link{
			Delay:        *delay,
			Jitter:       *jitter,
			Loss:         *loss,
			BandwidthBps: *bwBps,
		},
		CurveBuckets: *buckets,
	}

	res, tl, err := scenario.RunWithTimeline(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qossim:", err)
		os.Exit(1)
	}
	if *tlPath != "" {
		if err := exportTimeline(*tlPath, tl); err != nil {
			fmt.Fprintln(os.Stderr, "qossim:", err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "qossim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("scenario=%s clients=%d publishers=%d seed=%d sim=%s wall=%s\n",
		res.Scenario, res.Clients, res.Publishers, res.Seed,
		time.Duration(res.SimMS)*time.Millisecond,
		time.Duration(res.WallMS)*time.Millisecond)
	fmt.Printf("published=%d sent=%d delivered=%d dropped=%d loss=%.4f\n",
		res.Published, res.Sent, res.Delivered, res.Dropped, res.Loss)
	fmt.Printf("latency p50=%.2fms p90=%.2fms p99=%.2fms mean=%.2fms\n",
		res.LatencyP50MS, res.LatencyP90MS, res.LatencyP99MS, res.LatencyMeanMS)
	fmt.Printf("event-hash=%s\n\n", res.EventHash)
	fmt.Printf("%10s %12s %12s %10s %9s %9s %7s\n",
		"window", "sent", "delivered", "dropped", "p50ms", "p99ms", "loss")
	for _, p := range res.Curve {
		fmt.Printf("%4ds-%4ds %12d %12d %10d %9.2f %9.2f %7.4f\n",
			p.StartMS/1000, p.EndMS/1000, p.Sent, p.Delivered, p.Dropped,
			p.P50MS, p.P99MS, p.Loss)
	}
}
