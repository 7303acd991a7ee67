package main

import (
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"ldlp/internal/core"
	"ldlp/internal/mbuf"
)

// half is one discipline's side of a workload. Every workload runs the
// same seeded inputs under both, LDLP first on even passes and
// conventional first on odd ones, so drift on the box spreads evenly.
type half struct {
	name string // metric prefix
	disc core.Discipline
}

var halves = [2]half{{"ldlp", core.LDLP}, {"conv", core.Conventional}}

// tracedSet is the tracing states a run measures: untraced only, or
// both, so the traced run can report the tracing overhead.
func tracedSet(trace bool) []bool {
	if trace {
		return []bool{false, true}
	}
	return []bool{false}
}

// inOrder returns which of n targets runs j-th on pass p: in order on
// even passes, reversed on odd ones.
func inOrder(p, j, n int) int {
	if p%2 == 1 {
		return n - 1 - j
	}
	return j
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: the operation ledger, the
// correctness problems it found, and its metrics.
type report struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a correctness problem unless ok holds.
func (r *report) check(ok bool, problem string) {
	if !ok {
		r.problems = append(r.problems, problem)
	}
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// latencies is a histogram of one side's per-operation times over the
// whole run, in nanoseconds. Values below 2^(latencySubBits+1) have a
// bucket each; above that, each power of two is split into
// 2^latencySubBits buckets, so a bucket is at most 1/64 of its values
// wide. Every operation is counted, and the few kilobytes it touches
// stay in cache beside the code being measured.
type latencies struct {
	counts [64 << latencySubBits]int64
	n      int64
}

const latencySubBits = 6

func latencyBucket(v uint64) int {
	if v < 1<<(latencySubBits+1) {
		return int(v)
	}
	e := bits.Len64(v) - latencySubBits - 1
	return e<<latencySubBits + int(v>>e)
}

// latencyRange is bucket i's half-open value range.
func latencyRange(i int) (lo, hi float64) {
	if i < 1<<(latencySubBits+1) {
		return float64(i), float64(i + 1)
	}
	e := i>>latencySubBits - 1
	m := i - e<<latencySubBits
	return float64(m << e), float64((m + 1) << e)
}

func (l *latencies) add(ns float64) {
	l.counts[latencyBucket(uint64(ns+0.5))]++
	l.n++
}

// fold moves every sample of from into l, each scaled by speed (taken
// at its bucket's midpoint), and empties from.
func (l *latencies) fold(from *latencies, speed float64) {
	for i, c := range from.counts {
		if c == 0 {
			continue
		}
		lo, hi := latencyRange(i)
		l.counts[latencyBucket(uint64((lo+hi)/2*speed+0.5))] += c
		l.n += c
		from.counts[i] = 0
	}
	from.n = 0
}

// quantile returns the q-quantile in microseconds, interpolating
// linearly inside the bucket that holds it.
func (l *latencies) quantile(q float64) float64 {
	if l.n == 0 {
		return 0
	}
	rank := q * float64(l.n)
	var below float64
	for i, c := range l.counts {
		if c == 0 {
			continue
		}
		if below+float64(c) >= rank {
			lo, hi := latencyRange(i)
			return (lo + (hi-lo)*(rank-below)/float64(c)) / 1e3
		}
		below += float64(c)
	}
	return 0
}

// chunkClock turns a stream of operations the benchmark can count but
// not bracket one by one (frames delivered inside a fleet run) into
// wall-clock time per operation, one sample per chunk of operations.
type chunkClock struct {
	lat   *latencies
	chunk int64
	n     int64
	start time.Time
}

func newChunkClock(lat *latencies, chunk int64) *chunkClock {
	return &chunkClock{lat: lat, chunk: chunk, start: time.Now()}
}

// reset starts a new chunk, dropping a partial one (the gap before it
// was not spent on operations).
func (c *chunkClock) reset() { c.n, c.start = 0, time.Now() }

func (c *chunkClock) tick(ops int64) {
	c.n += ops
	if c.n < c.chunk {
		return
	}
	now := time.Now()
	c.lat.add(float64(now.Sub(c.start).Nanoseconds()) / float64(c.n))
	c.n, c.start = 0, now
}

// heapPeak tracks the largest live Go heap the run reaches: the heap
// the last completed GC cycle found live. Workloads observe it between
// slices and, at the point where their heap is largest, force a cycle
// first with collect.
type heapPeak struct {
	sample []metrics.Sample
	peak   uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapPeak) observe() {
	metrics.Read(h.sample)
	h.peak = max(h.peak, h.sample[0].Value.Uint64())
}

func (h *heapPeak) collect() {
	runtime.GC()
	h.observe()
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / 1e6 }

// usage is the process-wide allocation state at one instant; the
// difference of two brackets a slice of work.
type usage struct {
	mallocs, totalAlloc, numGC, pauseNS uint64
	mbuf                                mbuf.Stats
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc,
		numGC: uint64(ms.NumGC), pauseNS: ms.PauseTotalNs,
		mbuf: mbuf.PoolStats(),
	}
}

// usageDelta accumulates the allocation work of one discipline's slices.
type usageDelta struct {
	mallocs, totalAlloc, numGC, pauseNS    uint64
	mbufAllocs, mbufHeap, mbufOverflowGets int64
}

func (d *usageDelta) add(a, b usage) {
	d.mallocs += b.mallocs - a.mallocs
	d.totalAlloc += b.totalAlloc - a.totalAlloc
	d.numGC += b.numGC - a.numGC
	d.pauseNS += b.pauseNS - a.pauseNS
	d.mbufAllocs += b.mbuf.Allocs - a.mbuf.Allocs
	d.mbufHeap += b.mbuf.HeapAllocs - a.mbuf.HeapAllocs
	d.mbufOverflowGets += b.mbuf.OverflowGets - a.mbuf.OverflowGets
}

// side is the running tally of one discipline (or, in the traced run,
// one discipline with tracing on or off): the calibrated rate of each
// measured slice or pass, latency samples pooled over the run, and
// allocation work. The reported rate is the median across slices, so
// one slice disturbed by the box does not move it; the latency
// quantiles come from every slice's samples together. A slice's
// samples go to cur in wall-clock time and are calibrated into lat when
// the slice closes.
type side struct {
	rates     []float64 // calibrated
	wallRates []float64
	speeds    []float64
	ops       int64
	lat, cur  *latencies
	use       usageDelta
}

func newSide() *side { return &side{lat: new(latencies), cur: new(latencies)} }

// record closes one measured slice of ops operations over dur,
// calibrating it with the machine's speed over the slice. It finishes
// the workload's garbage collection first: with one processor, a cycle
// still marking when the reference runs would land in its time.
func (s *side) record(ops int64, dur time.Duration, before, after usage) {
	runtime.GC()
	speed := ref.span()
	s.ops += ops
	s.speeds = append(s.speeds, speed)
	s.wallRates = append(s.wallRates, float64(ops)/dur.Seconds())
	s.rates = append(s.rates, float64(ops)/(dur.Seconds()*speed))
	s.lat.fold(s.cur, speed)
	s.use.add(before, after)
}

// speed is the machine's speed over the side's last slice.
func (s *side) speed() float64 { return s.speeds[len(s.speeds)-1] }

// endToEnd sets the side's end-to-end metrics under prefix, and the
// uncalibrated rate and the speed the traced run reports.
func (s *side) endToEnd(r *report, prefix string) {
	r.set("calib."+prefix+".wall_ops_per_s", median(s.wallRates), "1/s")
	r.set("calib."+prefix+".speed", median(s.speeds), "ratio")
	r.set(prefix+".ops_per_s", median(s.rates), "1/s")
	r.set(prefix+".latency_p50_us", s.lat.quantile(0.50), "us")
	r.set(prefix+".latency_p99_us", s.lat.quantile(0.99), "us")
	r.set(prefix+".allocs_per_op", ratio(float64(s.use.mallocs), float64(s.ops)), "count")
}

// runtimeLayer sets the Go runtime and mbuf pool per-layer metrics
// from the side's slices.
func (s *side) runtimeLayer(r *report) {
	u := s.use
	r.set("gc.cycles", float64(u.numGC), "count")
	r.set("gc.pause_total_ms", float64(u.pauseNS)/1e6, "ms")
	r.set("gc.alloc_mb_per_kop", ratio(float64(u.totalAlloc)/1e6, float64(s.ops)/1e3), "MB")
	r.set("mbuf.allocs_per_op", ratio(float64(u.mbufAllocs), float64(s.ops)), "count")
	r.set("mbuf.heap_fallback_ratio", ratio(float64(u.mbufHeap), float64(u.mbufAllocs)), "ratio")
	r.set("mbuf.overflow_ratio", ratio(float64(u.mbufOverflowGets), float64(u.mbufAllocs)), "ratio")
}

// overhead sets the tracing cost: untraced minus traced throughput, in
// operations per second and as a share of the untraced rate.
func overhead(r *report, prefix string, untraced, traced *side) {
	u, t := median(untraced.rates), median(traced.rates)
	r.set("trace."+prefix+"_overhead_ops_per_s", u-t, "1/s")
	r.set("trace."+prefix+"_overhead_pct", 100*ratio(u-t, u), "%")
}

// passTarget is one measured discipline, traced or not, of a workload
// that measures in whole passes (a fleet run, a round of simulators).
type passTarget struct {
	h    half
	tr   *tracer // nil when untraced
	side *side
}

// runPasses gives every target one pass at a time, in the order inOrder
// sets, until the time is spent — at least two passes, so each
// discipline goes first once. pass runs target t, the i-th, for pass
// p, records it and returns its wall-clock set-up time; setup_s is the
// median over passes of the untraced targets' summed set-up, each
// calibrated by its target's speed. It then sets the end-to-end
// metrics and, in the traced run, the tracing overhead, the Go runtime
// metrics and the span file. The targets are LDLP and conventional
// untraced, then the same two traced.
func runPasses(cfg config, r *report, pass func(t *passTarget, i, p int) (float64, error)) error {
	var targets []*passTarget
	base := time.Now()
	for _, traced := range tracedSet(cfg.trace) {
		for _, h := range halves {
			t := &passTarget{h: h, side: newSide()}
			if traced {
				t.tr = newTracer(h.name, base)
			}
			targets = append(targets, t)
		}
	}
	var setups []float64
	budget := time.Duration(cfg.seconds * float64(time.Second))
	ref.probe()
	start := time.Now()
	var lastPass time.Duration
	for p := 0; p < 2 || time.Since(start)+lastPass <= budget; p++ {
		passStart := time.Now()
		setup := 0.0
		for j := range targets {
			i := inOrder(p, j, len(targets))
			s, err := pass(targets[i], i, p)
			if err != nil {
				return err
			}
			if targets[i].tr == nil {
				setup += s * targets[i].side.speed()
			}
		}
		setups = append(setups, setup)
		lastPass = time.Since(passStart)
	}
	r.set("setup_s", median(setups), "s")
	for _, t := range targets[:len(halves)] {
		t.side.endToEnd(r, t.h.name)
	}
	if cfg.trace {
		overhead(r, "ldlp", targets[0].side, targets[2].side)
		overhead(r, "conv", targets[1].side, targets[3].side)
		targets[0].side.runtimeLayer(r)
		n, err := writeSpans(cfg.spanDir, cfg.spanFile, []*tracer{targets[2].tr, targets[3].tr})
		if err != nil {
			return err
		}
		r.set("trace.spans", float64(n), "count")
	}
	return nil
}
