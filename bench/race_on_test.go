//go:build race

package main

// smokeSeconds is longer under the race detector, which slows the workloads
// about tenfold: five 100 ms windows would stay empty.
const smokeSeconds = 5.0
