//go:build !race

package main

// smokeSeconds gives the smoke pass five 100 ms windows.
const smokeSeconds = 0.5
