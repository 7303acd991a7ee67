package main

import (
	"math"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on shared machines, where how fast the same code
// runs drifts by up to 1.6x over seconds to minutes as neighbours load
// the caches the program shares with them. That drift is slower than a
// slice but faster than a set of runs, so medians inside a run cannot
// absorb it. Every time the benchmark reports is therefore calibrated:
// between slices (and passes) it times a fixed reference, work of the
// benchmark's own with the program's kind of memory behaviour, and
// scales each slice's wall-clock time by the machine's speed over that
// slice,
//
//	speed = (nominal reference time / measured reference time)^sensitivity,
//
// so a time reads as it would on a machine that runs the reference in
// its nominal time. A change to the program moves a calibrated time as
// much as the wall-clock one; drift of the machine moves both the
// program and the reference. The uncalibrated rates and the speed are
// reported by the traced run.

// The reference is two kernels: lookups of random keys in a hash table
// that, like the program's working set, fits a core's caches only when
// nothing else crowds them; and filling packet-sized buffers at
// successive places in a region larger than those caches, as the
// allocator hands out fresh memory. Both work on memory outside the Go
// heap, so the reference neither depends on the workload's heap (a
// collection the workload's garbage set off would otherwise land in the
// reference's time) nor changes the heap the workloads report and the
// collector's pacing.
const (
	refTableSlots = 1 << 16 // open-addressing table of 32-bit keys
	refTableKeys  = 1 << 15
	refLookups    = 1 << 16
	refFillBytes  = 4 << 20 // the region the fill kernel writes through
	refFills      = 1 << 13
	refRepeats    = 2 // each kernel's time is its fastest of this many
)

// refNominalNS is each kernel's nominal time, in nanoseconds: typical
// times on a 2-vCPU shared VM (Intel Xeon, 2.1 GHz) in a quiet phase.
// Any fixed values would do; these keep calibrated times near
// wall-clock ones.
var refNominalNS = [2]float64{560e3, 330e3}

// refSensitivity is how much more than the reference each workload
// slows down as the machine does, in log terms: the slope of its log
// wall-clock rate against the log reference speed, over 30 runs spread
// across an hour on that VM. It was 1.5-1.7 for the netstack
// workloads and 1.1 for fleet-gossip, whose 150 MB heap lies mostly
// beyond the caches. For paper-sim it was 1.9-2.0, but 2 spread the
// calibrated rates of one discipline less than 1.5 did and of the
// other more.
var refSensitivity = map[string]float64{
	"udp-echo-burst": 1.5,
	"tcp-rr-churn":   1.5,
	"fleet-gossip":   1,
	"paper-sim":      1.5,
}

// refClock is the reference and its most recent measurement.
type refClock struct {
	table []uint32 // 0 is an empty slot
	keys  []uint32
	fill  []byte
	at    int // where the fill kernel writes next
	src   []byte
	last  float64 // speed at the last probe
	// sensitivity is the running workload's entry in refSensitivity.
	sensitivity float64
}

// offHeap returns n zeroed bytes of anonymous memory.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: reference memory: " + err.Error())
	}
	return b
}

func offHeapWords(n int) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(&offHeap(4 * n)[0])), n)
}

func newRefClock() *refClock {
	rng := rand.New(rand.NewSource(1))
	c := &refClock{table: offHeapWords(refTableSlots), keys: offHeapWords(refTableKeys), fill: offHeap(refFillBytes), src: offHeap(maxPayload), sensitivity: 1}
	for i := range c.keys {
		k := rng.Uint32() | 1
		c.keys[i] = k
		c.table[c.slot(k)] = k
	}
	rng.Read(c.src)
	c.probe()
	return c
}

// slot returns the slot that holds k, or the empty slot where it would
// go.
func (c *refClock) slot(k uint32) uint32 {
	s := (k * 2654435761) >> (32 - 16)
	for c.table[s] != 0 && c.table[s] != k {
		s = (s + 1) & (refTableSlots - 1)
	}
	return s
}

var refSink uint32

func (c *refClock) lookupKernel() {
	var s uint32
	for i := 0; i < refLookups; i++ {
		s += c.slot(c.keys[(i*7919)&(refTableKeys-1)])
	}
	refSink += s
}

func (c *refClock) fillKernel() {
	for i := 0; i < refFills; i++ {
		n := minPayload + (i*37)%(maxPayload-minPayload)
		if c.at+n > len(c.fill) {
			c.at = 0
		}
		copy(c.fill[c.at:c.at+n], c.src[:n])
		c.at += (n + 15) &^ 15
	}
}

// probe times the reference and returns the machine's speed now: the
// geometric mean over the kernels of nominal over measured time, raised
// to the workload's sensitivity.
func (c *refClock) probe() float64 {
	kernels := [2]func(){c.lookupKernel, c.fillKernel}
	logSum := 0.0
	for k, run := range kernels {
		best := math.Inf(1)
		for r := 0; r < refRepeats; r++ {
			t0 := time.Now()
			run()
			best = min(best, float64(time.Since(t0).Nanoseconds()))
		}
		logSum += math.Log(refNominalNS[k] / best)
	}
	c.last = math.Exp(c.sensitivity * logSum / float64(len(kernels)))
	return c.last
}

// span probes again and returns the speed over the span since the last
// probe: the mean of the speeds at its two ends.
func (c *refClock) span() float64 {
	before := c.last
	return (before + c.probe()) / 2
}

// ref is the process's reference, shared by every workload.
var ref = newRefClock()
