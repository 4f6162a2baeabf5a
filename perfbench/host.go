package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// probeIters is the fixed integer work of one host-speed probe: long
// enough (tens of milliseconds) to average over scheduler ticks, short
// enough to run on every vCPU before and after every run.
const probeIters = 20_000_000

// probeSink keeps the probe loop's result alive.
var probeSink uint64

// hostProbe times a fixed pure-integer loop on each vCPU the process may
// run on and returns the speed of each in millions of iterations per
// second. It tells a slow host from a slow change; no metric is ever
// divided by it. Where the thread cannot be pinned, the loop runs once
// per CPU wherever the scheduler puts it.
func hostProbe() []float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var orig [16]uint64
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(orig), uintptr(unsafe.Pointer(&orig))); errno != 0 {
		out := make([]float64, runtime.NumCPU())
		for i := range out {
			out[i] = spin(uint64(i))
		}
		return out
	}
	var out []float64
	for cpu := 0; cpu < 64*len(orig); cpu++ {
		if orig[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		var mask [16]uint64
		mask[cpu/64] = 1 << (cpu % 64)
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
		out = append(out, spin(uint64(cpu)))
	}
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(orig), uintptr(unsafe.Pointer(&orig)))
	return out
}

// spin runs the probe loop once and returns its speed in M iterations/s.
func spin(seed uint64) float64 {
	start := time.Now()
	x := seed + 0x9e3779b97f4a7c15
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return probeIters / time.Since(start).Seconds() / 1e6
}

// cpuTicks reads the host's aggregate CPU counters from /proc/stat: all
// ticks, and the ticks the hypervisor gave to other guests (steal). It
// returns zeros where /proc/stat is missing or has no steal column.
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
