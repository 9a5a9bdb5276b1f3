//go:build !race

package main

// raceDetectorEnabled reports whether this test binary was built with
// -race; see race_on_test.go.
const raceDetectorEnabled = false
