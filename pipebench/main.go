// Command pipebench is the whole-pipeline session benchmark: real
// core.Clients, a real basestation.BaseStation and, on the repair
// workload, a real core.Coordinator on transport.SimNet with
// zero-delay links, driven open loop from one seeded generator.  It
// checks every delivery against the schedule and prints the metrics
// as one JSON object on the last line of standard output.
//
// Usage (from the repository root, through the launcher that builds
// it):
//
//	bash pipebench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics.  With --trace 1 it
// runs the workload twice on fresh sessions, untraced and then traced,
// prints the per-layer metrics and writes the span file and per-layer
// table under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adaptiveqos/internal/obs"
)

// setupReps is how many times a run builds and closes the session to
// time setup_s.  One build takes well under a millisecond, so the
// median of many is what stays put between runs.
const setupReps = 201

// errOracle marks a run whose deliveries failed the correctness check;
// errLost marks one whose only failures are deliveries that never
// arrived.
var (
	errOracle = errors.New("correctness oracle")
	errLost   = fmt.Errorf("%w: deliveries lost", errOracle)
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "interactive", "workload: interactive, imaging or lossy-repair")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds of load")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for the span file and per-layer table")
	flag.Parse()

	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "pipebench: --trace takes 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *traced == 1, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, outDir string) error {
	s, err := lookupSpec(workload)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: need at least 1", seconds)
	}
	res := result{Metrics: map[string]metric{}}
	var problems []string
	lost := 0
	tally := func(v verdict) {
		res.Attempted += v.attempted
		res.Failed += v.missed + v.extra
		lost += v.lost
		problems = append(problems, v.problems...)
	}

	var env map[string]any
	if !traced {
		in := generate(s, seed, seconds)
		setup, err := timeSetup(in)
		if err != nil {
			return err
		}
		m, v, d, err := runSession(in, nil)
		if err != nil {
			return err
		}
		tally(v)
		delivered := 0.0
		if v.attempted > 0 {
			delivered = float64(v.attempted-v.missed) / float64(v.attempted)
		}
		e2e := map[string]float64{
			"setup_s":          setup,
			"delivery_p50_ms":  windowQuantile(v, 0.50) / 1e6,
			"delivered_ratio":  delivered,
			"cpu_us_per_item":  m.cpuUS,
			"allocs_per_item":  m.allocs,
			"heap_retained_mb": m.heapMB,
		}
		for _, def := range endToEnd {
			res.Metrics[def.name] = metric{Value: e2e[def.name], Unit: def.unit}
		}
		env = stamp(in, seconds, traced, d.pollPeriodUS())
		env["delivery_samples"] = len(v.latNS)
	} else {
		// Two fresh sessions share the run: an untraced pass, the
		// baseline for trace.overhead_pct, then the traced pass the
		// per-layer figures come from.  Each gets half the seconds.
		in := generate(s, seed, max(1, seconds/2))
		plain, v, _, err := runSession(in, nil)
		if err != nil {
			return err
		}
		tally(v)
		p99 := windowQuantile(v, 0.99) / 1e6

		rec := newRecorder()
		obs.SetEnabled(true)
		defer obs.SetEnabled(false)
		tm, v, d, err := runSession(in, rec)
		if err != nil {
			return err
		}
		tally(v)
		overhead := (tm.cpuUS - plain.cpuUS) / plain.cpuUS * 100
		res.Metrics = layerMetrics(d, tm.before, tm.after, len(in.measured), overhead, p99)
		env = stamp(in, seconds, traced, d.pollPeriodUS())
		if err := writeTrace(rec, outDir, workload, seed, len(in.measured)); err != nil {
			return err
		}
	}

	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, def := range want {
		if _, ok := res.Metrics[def.name]; !ok {
			return fmt.Errorf("metric %s was not measured", def.name)
		}
	}
	res.Correct = res.Failed == 0
	stampJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env: %s\n", stampJSON)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "oracle:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		kind := errOracle
		if lost == res.Failed {
			kind = errLost
		}
		return fmt.Errorf("%w: %d of %d deliveries failed, %d never arrived", kind, res.Failed, res.Attempted, lost)
	}
	return nil
}

// writeTrace writes the span file and the per-layer table, and prints
// the table on standard error.
func writeTrace(rec *recorder, outDir, workload string, seed int64, items int) error {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := rec.writeSpans(base + ".spans.jsonl"); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(base + ".layers.txt")
	if err != nil {
		return fmt.Errorf("layer table: %w", err)
	}
	rec.writeTable(f, items)
	if err := f.Close(); err != nil {
		return fmt.Errorf("layer table: %w", err)
	}
	rec.writeTable(os.Stderr, items)
	fmt.Fprintf(os.Stderr, "spans: %s.spans.jsonl\n", base)
	return nil
}

// timeSetup builds and closes the session setupReps times and returns
// the median build time in seconds.  A forced GC before each build
// keeps the previous build's garbage out of the next one's time.
func timeSetup(in *inputs) (float64, error) {
	times := make([]float64, 0, setupReps)
	for range setupReps {
		runtime.GC()
		start := time.Now()
		t, err := build(in, nil)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		t.close()
	}
	return median(times), nil
}

// runSession builds one session, measures the scheduled load on it and
// closes it.  rec, when non-nil, traces the session.
func runSession(in *inputs, rec *recorder) (measured, verdict, *harness, error) {
	t, err := build(in, rec)
	if err != nil {
		return measured{}, verdict{}, nil, err
	}
	defer t.close()
	d := newHarness(t, rec)
	m, v, err := measure(d)
	return m, v, d, err
}

// measured is one phase's cost figures.
type measured struct {
	cpuUS, allocs float64 // per item published
	heapMB        float64 // heap the session grew by and still holds
	before, after snapshot
}

// measure warms the session up, then measures the scheduled load from
// its first publish until every delivery is visible, and checks the
// outcome.  The harness sizes its own records before the session
// starts, so the heap growth it reports is what the program keeps.
func measure(d *harness) (measured, verdict, error) {
	base := heapAfterGC()
	warm := len(d.t.in.warm)
	if err := d.phase(0, warm, false); err != nil {
		return measured{}, verdict{}, err
	}
	if d.rec != nil {
		d.rec.startMeasuring()
	}
	var m measured
	m.before = take(d.t)
	if err := d.phase(warm, len(d.items), true); err != nil {
		return measured{}, verdict{}, err
	}
	m.after = take(d.t)
	m.heapMB = float64(int64(heapAfterGC())-int64(base)) / (1 << 20)
	n := float64(len(d.items) - warm)
	m.cpuUS = float64(m.after.cpu-m.before.cpu) / 1e3 / n
	m.allocs = float64(m.after.mem.Mallocs-m.before.mem.Mallocs) / n
	return m, d.check(warm + 1), nil
}

// heapAfterGC is HeapAlloc after a forced collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// stamp describes the run's environment and shape.
func stamp(in *inputs, seconds int, traced bool, pollUS float64) map[string]any {
	rev := os.Getenv("PIPEBENCH_REV") // set by run.sh
	if rev == "" {
		rev = "unknown"
	}
	s := in.spec
	return map[string]any{
		"workload": s.name, "seed": in.seed, "heldout_seed": heldOutSeed,
		"git_rev": rev, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"rate_per_s": s.rate, "wired": s.wired, "wireless": s.wireless, "loss": s.loss,
		"seconds": seconds, "warm_seconds": warmSeconds, "items": len(in.measured),
		"poll_interval_us": pollInterval.Microseconds(), "poll_period_us": pollUS, "traced": traced,
	}
}
