package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range specs {
		a, b := generate(s, 42, 1), generate(s, 42, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 generated different inputs", s.name)
		}
		if c := generate(s, 43, 1); reflect.DeepEqual(a.measured, c.measured) {
			t.Errorf("%s: seeds 42 and 43 generated the same schedule", s.name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric set, units and
// directions in step with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bench.Workloads), len(specs))
	}
	for i, w := range bench.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, specs[i].name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced; run
// fails when the correctness oracle finds a bad delivery or a metric
// is missing.  Under the race detector the pipeline cannot keep up
// with the workloads' rates, so a run whose only failures are
// deliveries that never arrived is logged there; a duplicate, a
// reordered or wrong-tier delivery, an unexpected event or a missing
// metric still fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			err := run(s.name, 7, 1, traced, t.TempDir())
			switch {
			case err == nil:
			case raceDetectorEnabled && errors.Is(err, errLost):
				t.Logf("%s traced=%v under -race: %v", s.name, traced, err)
			default:
				t.Errorf("%s traced=%v: %v", s.name, traced, err)
			}
		}
	}
}

// TestPollerCost checks the poller's sweep does not allocate, also
// while an image's announce is outstanding, and logs what an idle
// session's poller costs: its CPU is part of cpu_us_per_item.
//
//	go test -run TestPollerCost -v
func TestPollerCost(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	for _, s := range specs {
		in := generate(s, 7, 1)
		top, err := build(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		d := newHarness(top, nil)
		if err := d.phase(0, len(in.warm), false); err != nil {
			t.Fatal(err)
		}
		if s.images {
			// An image nobody announces: the sweep must not look it up.
			d.w[0].pending = append(d.w[0].pending, &item{id: len(in.warm) + 1, object: "never-announced"})
		}
		if a := testing.AllocsPerRun(200, d.sweep); a != 0 {
			t.Errorf("%s: sweep allocates %.1f times", s.name, a)
		}

		start := time.Now()
		for range 1000 {
			d.sweep()
		}
		sweepUS := float64(time.Since(start).Microseconds()) / 1000

		stop, done := make(chan struct{}), make(chan struct{})
		sweeps := d.sweeps
		cpu := processCPU()
		go d.poll(stop, done)
		time.Sleep(time.Second)
		close(stop)
		<-done
		cpuUS := float64(processCPU()-cpu) / 1e3
		t.Logf("%s: one sweep %.1f us; idle poller %.0f us CPU/s over %d sweeps = %.1f us per item at %.0f items/s",
			s.name, sweepUS, cpuUS, d.sweeps-sweeps, cpuUS/s.rate, s.rate)
		top.close()
	}
}
