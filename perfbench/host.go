package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuTicks is the machine's aggregate CPU time from /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readCPU reads /proc/stat; on systems without it the ticks stay zero.
func readCPU() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	var t cpuTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of CPU time the hypervisor took from this machine
// between two readings: a run measured while it is high ran on a
// contended host.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total) * 100
}

// processCPU is the CPU time the calling process has used so far, all its
// threads together (the Go runtime's garbage collector included).
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// pidCPU is the CPU time process pid has used so far, summed over its
// threads from their /proc schedstat, which counts in nanoseconds where
// /proc/<pid>/stat counts in 10 ms ticks.
func pidCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for process %d", pid)
	}
	var sum time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread has exited
		}
		var ns int64
		if _, err := fmt.Sscan(string(raw), &ns); err != nil {
			return 0, fmt.Errorf("%s: %v", t, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}
