package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is a point-in-time reading of the process and host counters a
// phase is measured by. The difference of two readings is the phase's
// cost.
type proc struct {
	wall       time.Time
	cpu        time.Duration // user + system CPU of this process
	totalAlloc uint64        // bytes ever allocated on the heap
	numGC      uint32
	gcCPU      float64 // seconds of CPU spent on GC
	allCPU     float64 // seconds of CPU available to the Go runtime
	steal      uint64  // host-wide steal ticks (/proc/stat)
	ticks      uint64  // host-wide total ticks (/proc/stat)
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() proc {
	var p proc
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.totalAlloc, p.numGC = ms.TotalAlloc, ms.NumGC
	metrics.Read(cpuSamples)
	p.gcCPU, p.allCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	p.steal, p.ticks = readSteal()
	p.wall = time.Now()
	return p
}

// readSteal returns the steal and total ticks of the aggregate cpu line of
// /proc/stat; both are 0 where the file does not exist.
func readSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	line, _ := bufio.NewReader(f).ReadString('\n')
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cost is the difference of two readings.
type cost struct {
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	gcs    uint32
	gcCPU  float64
	allCPU float64
	steal  uint64
	ticks  uint64
}

func since(a proc) cost { return diff(a, readProc()) }

func diff(a, b proc) cost {
	return cost{
		wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, alloc: b.totalAlloc - a.totalAlloc,
		gcs: b.numGC - a.numGC, gcCPU: b.gcCPU - a.gcCPU, allCPU: b.allCPU - a.allCPU,
		steal: b.steal - a.steal, ticks: b.ticks - a.ticks,
	}
}

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.alloc += o.alloc
	c.gcs += o.gcs
	c.gcCPU += o.gcCPU
	c.allCPU += o.allCPU
	c.steal += o.steal
	c.ticks += o.ticks
}

// stealPct is the share of host CPU time stolen by the hypervisor.
func (c cost) stealPct() float64 { return 100 * ratio(float64(c.steal), float64(c.ticks)) }

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
