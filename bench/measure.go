package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is one snapshot of the process-wide cost counters the benchmark
// differences across a window: CPU from getrusage, heap traffic and GC from
// runtime.MemStats. Everything in the process is counted — the servers under
// test and the bench's own load generation (the typed SDK in
// internal/httpapi/client is part of what a caller pays).
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause time.Duration
}

// readUsage snapshots the counters. runtime.ReadMemStats stops the world for
// a few tens of microseconds, so it is only called at window boundaries.
func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

// usageDelta is the cost of one interval.
type usageDelta struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	gcPause time.Duration
}

func (u usage) since(prev usage) usageDelta {
	return usageDelta{
		wall:    u.at.Sub(prev.at),
		cpu:     u.cpu - prev.cpu,
		mallocs: u.mallocs - prev.mallocs,
		bytes:   u.bytes - prev.bytes,
		gcs:     u.gcs - prev.gcs,
		gcPause: u.gcPause - prev.gcPause,
	}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status. On systems without procfs it falls back to getrusage's
// ru_maxrss, which Linux also reports in KiB.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
