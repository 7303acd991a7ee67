package main

import (
	"fmt"
	"runtime"
	"time"

	"ldlp/internal/fleet"
	"ldlp/internal/fleet/gossip"
	"ldlp/internal/mbuf"
)

const (
	fleetDegree = 8 // small-world lattice parameter k
	fleetBeta   = 0.1
	fleetTarget = 3
	fleetPreset = "bernoulli"
	warmupNodes = 64
)

// timedApp is the gossip protocol with a wall clock on delivered
// frames: before each poll it counts the frames the node's host took in
// since its last poll.
type timedApp struct {
	*gossip.Runner
	clock *chunkClock
	last  []int64
}

func (a *timedApp) Poll(n *fleet.Node, now float64) {
	in := n.Host().Counters.FramesIn
	a.clock.tick(in - a.last[n.ID()])
	a.last[n.ID()] = in
	a.Runner.Poll(n, now)
}

// fleetRun is what one gossip run to the target step leaves behind.
type fleetRun struct {
	newS, runS     float64
	stats          fleet.Stats
	sent           int64
	roundsPerStep  float64
	deliveryP99NS  float64
	attempted, bad int64
	problems       []string
}

// runFleetGossip runs 1000-node threshold gossip to the target step
// under each discipline in turn, a fresh fleet per run, until the time
// is spent.
func runFleetGossip(cfg config) (*report, error) {
	r := newReport()
	peak := newHeapPeak()
	link := fleet.FaultyLink(fleet.LANLink(), fleetPreset)
	// Warm-up: one untimed run of a small fleet per discipline.
	warm := cfg
	warm.scale.fleetNodes = warmupNodes
	for _, h := range halves {
		run, err := gossipOnce(warm, h, link, nil, 0, newSide(), newHeapPeak())
		if err != nil {
			return nil, err
		}
		r.problems = append(r.problems, run.problems...)
	}

	runs := make([][]fleetRun, 2*len(halves))
	var req int64
	err := runPasses(cfg, r, func(t *passTarget, i, _ int) (float64, error) {
		req++
		run, err := gossipOnce(cfg, t.h, link, t.tr, req, t.side, peak)
		if err != nil {
			return 0, err
		}
		r.attempted += run.attempted
		r.failed += run.bad
		r.problems = append(r.problems, run.problems...)
		runs[i] = append(runs[i], run)
		return run.newS, nil
	})
	if err != nil {
		return nil, err
	}
	r.check(r.failed == 0, fmt.Sprintf("%d of %d frames failed", r.failed, r.attempted))
	if cfg.trace {
		ldlp := runs[0]
		var newS, runS []float64
		for _, run := range ldlp {
			newS = append(newS, run.newS)
			runS = append(runS, run.runS)
		}
		first := ldlp[0]
		st := first.stats
		r.set("fleet.new_s", median(newS), "s")
		r.set("fleet.run_s", median(runS), "s")
		r.set("fleet.events", float64(st.Events), "count")
		r.set("fleet.ns_per_event", 1e9*median(runS)/float64(st.Events), "ns")
		r.set("fleet.batches", float64(st.Batches), "count")
		r.set("fleet.max_batch", float64(st.MaxBatch), "count")
		r.set("fleet.inbox_drops", float64(st.InboxDrops), "count")
		r.set("faults.dropped", float64(st.Faults.Dropped), "count")
		r.set("faults.duplicated", float64(st.Faults.Duplicated), "count")
		r.set("gossip.msgs_sent", float64(first.sent), "count")
		r.set("gossip.rounds_per_step", first.roundsPerStep, "count")
		r.set("gossip.delivery_p99_ms", first.deliveryP99NS/1e6, "ms")
		r.set("gossip.ldlp_latency_ratio", ratio(runs[1][0].deliveryP99NS, first.deliveryP99NS), "ratio")
	}
	r.set("mbuf.in_use_end", float64(mbuf.PoolStats().InUse), "count")
	r.set("heap_peak_mb", peak.mb(), "MB")
	return r, nil
}

// gossipOnce builds one fleet (the timed set-up), runs the protocol to
// the target step, checks the run and tears the fleet down. Errors are
// for fleets that could not be built; a run that went wrong reports
// problems.
func gossipOnce(cfg config, h half, link fleet.LinkConfig, tr *tracer, req int64, s *side, peak *heapPeak) (fleetRun, error) {
	var run fleetRun
	// Start from a collected heap, so one run's garbage is not charged
	// to the next.
	runtime.GC()
	n := cfg.scale.fleetNodes
	root := tr.begin(spOp, -1, req)
	sp := tr.begin(spFleetNew, root, req)
	t0 := time.Now()
	topo := fleet.SmallWorld(n, fleetDegree, fleetBeta, cfg.seed)
	gc := gossip.Config{
		Fleet:      fleet.Config{Topology: topo, Discipline: h.disc, Link: link, Seed: cfg.seed},
		TargetStep: fleetTarget,
	}
	runner, err := gossip.NewRunner(gc, n)
	if err != nil {
		return run, err
	}
	app := &timedApp{Runner: runner, clock: newChunkClock(s.cur, cfg.scale.chunkOps), last: make([]int64, n)}
	f, err := fleet.New(gc.Fleet, app)
	if err != nil {
		return run, err
	}
	run.newS = time.Since(t0).Seconds()
	tr.end(sp, 0)

	sp = tr.begin(spFleetRun, root, req)
	before := readUsage()
	t1 := time.Now()
	app.clock.reset()
	st := f.Run()
	elapsed := time.Since(t1)
	s.record(st.Delivered, elapsed, before, readUsage())
	peak.observe() // record collected, and the whole fleet is still live
	tr.end(sp, st.Delivered)
	tr.end(root, 0)
	tr.boundary()
	run.runS = elapsed.Seconds()
	run.stats = st

	// A frame the program dropped on its own is a failed operation;
	// frames the injected link faults drop are not.
	run.attempted = st.Delivered + st.InboxDrops
	run.bad = st.InboxDrops
	for i := 0; i < f.N(); i++ {
		run.bad += hostDrops(f.Node(i).Host())
	}
	if err := f.CheckInvariants(); err != nil {
		run.problems = append(run.problems, fmt.Sprintf("%s: %v", h.name, err))
	}
	if runner.Reached() != f.N() {
		run.problems = append(run.problems, fmt.Sprintf("%s: %d of %d nodes reached step %d", h.name, runner.Reached(), f.N(), fleetTarget))
		run.bad = run.attempted // every operation of the run failed
	}
	run.sent = runner.Sent()
	var steps int64
	for i := 0; i < f.N(); i++ {
		steps += int64(len(runner.History(i)))
	}
	run.roundsPerStep = ratio(float64(run.sent), float64(steps))
	for _, e := range f.MergedTelemetry() {
		if e.Name == "fleet-delivery-ns" {
			run.deliveryP99NS = e.Hist.Quantile(0.99)
		}
	}
	f.Close()
	if inUse := mbuf.PoolStats().InUse; inUse != 0 {
		run.problems = append(run.problems, fmt.Sprintf("%s: mbuf pool holds %d buffers after fleet teardown", h.name, inUse))
	}
	return run, nil
}
