//go:build !race

package hraft_test

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation makes CPU-bound paths several times slower.
const raceEnabled = false
