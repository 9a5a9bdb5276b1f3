//go:build race

package main

// raceDetectorEnabled reports whether this test binary was built with
// -race; the detector slows the pipeline several times over, so the
// open-loop workloads overload it and the program drops frames.
const raceDetectorEnabled = true
