package main

import (
	"fmt"
	"runtime"
	"time"

	"ldlp/internal/mbuf"
	"ldlp/internal/sim"
	"ldlp/internal/traffic"
)

// simRates are the paper-sim arrival rates: at 2000/s LDLP batches stay
// near 1, at 8000/s the conventional stack saturates.
var simRates = [2]float64{2000, 8000}

const (
	simSize          = 552 // the paper's message size
	warmupSimSeconds = 0.05
)

// simCell is one discipline's results at one rate, summed over the runs
// of every pass.
type simCell struct {
	runs                              int
	processed                         int
	imisses, dmisses, batch, p50, p99 float64 // sums over runs
}

// simTally is one target's results: per-rate cells and, for the traced
// run's per-layer timings, totals over every pass.
type simTally struct {
	cells                                 [len(simRates)]simCell
	newS, runS, trafficS, arrived, builds float64
}

// simJob is one simulator built for one (rate, placement seed) cell.
type simJob struct {
	s     *sim.Sim
	trace *traffic.Trace
	rate  int
	seed  int64
}

// runPaperSim runs the §4 five-layer stack on the paper's machine. Each
// pass, every target draws the Poisson arrivals and builds a simulator
// per (rate, placement seed) — the timed set-up — then runs them one
// after another; the targets take turns.
func runPaperSim(cfg config) (*report, error) {
	r := newReport()
	peak := newHeapPeak()
	// Warm-up: one short untimed run per discipline.
	for _, h := range halves {
		c := sim.DefaultConfig(h.disc)
		c.Duration = warmupSimSeconds
		sim.New(c).Run(traffic.NewPoisson(simRates[len(simRates)-1], simSize, cfg.seed))
	}

	tallies := make([]simTally, 2*len(halves))
	err := runPasses(cfg, r, func(t *passTarget, i, p int) (float64, error) {
		return simPass(cfg, r, t, &tallies[i], int64(p), peak), nil
	})
	if err != nil {
		return nil, err
	}
	// paper-sim's latencies are the model's, as the simulator reports
	// them: each simulation's p50 and p99 simulated latency, averaged
	// over every simulation of the run (both rates, every placement
	// seed). Wall-clock time per message, sampled over chunks of a pass
	// or over whole passes, had a p99 set by how the chunks fell across
	// the two rates' runs and collection cycles, or by the slowest few
	// passes, and it moved by up to 1.5x between seeds.
	for i, h := range halves {
		var runs int
		var p50, p99 float64
		for _, c := range tallies[i].cells {
			runs += c.runs
			p50 += c.p50
			p99 += c.p99
		}
		r.set(h.name+".latency_p50_us", 1e6*p50/float64(runs), "us")
		r.set(h.name+".latency_p99_us", 1e6*p99/float64(runs), "us")
	}
	ldlp, conv := &tallies[0], &tallies[1]
	hi := len(simRates) - 1
	li, ci := ldlp.cells[hi].imisses/float64(ldlp.cells[hi].runs), conv.cells[hi].imisses/float64(conv.cells[hi].runs)
	r.check(li < ci, fmt.Sprintf("LDLP I-misses per message %.1f not below conventional %.1f at %v/s", li, ci, simRates[hi]))
	if cfg.trace {
		var processed float64
		for _, c := range ldlp.cells {
			processed += float64(c.processed)
		}
		c := ldlp.cells[hi]
		n := float64(c.runs)
		r.set("sim.new_s", ldlp.newS/ldlp.builds, "s")
		r.set("sim.ns_per_msg", 1e9*ldlp.runS/processed, "ns")
		r.set("traffic.ns_per_arrival", 1e9*ldlp.trafficS/ldlp.arrived, "ns")
		r.set("sim.imisses_per_msg", c.imisses/n, "count")
		r.set("sim.dmisses_per_msg", c.dmisses/n, "count")
		r.set("sim.mean_batch", c.batch/n, "count")
		r.set("sim.latency_p50_us", 1e6*c.p50/n, "us")
	}
	r.set("mbuf.in_use_end", float64(mbuf.PoolStats().InUse), "count")
	r.set("heap_peak_mb", peak.mb(), "MB")
	return r, nil
}

// simPass is one target's pass: set-up, then every simulator run. It
// returns the set-up time.
func simPass(cfg config, r *report, t *passTarget, tl *simTally, req int64, peak *heapPeak) float64 {
	sc := cfg.scale
	tr := t.tr
	root := tr.begin(spOp, -1, req)
	// The set-up starts from a collected heap, so the last pass's
	// garbage is not charged to it.
	runtime.GC()
	t0 := time.Now()
	var jobs []simJob
	for ri, rate := range simRates {
		for p := 0; p < sc.simSeeds; p++ {
			seed := cfg.seed*1000 + int64(ri*100+p)
			sp := tr.begin(spTraffic, root, req)
			tg := time.Now()
			tt := traffic.NewTrace(traffic.Take(traffic.NewPoisson(rate, simSize, seed), sc.simDuration, 0))
			tl.trafficS += time.Since(tg).Seconds()
			tl.arrived += float64(tt.Len())
			tr.end(sp, int64(tt.Len()))

			sp = tr.begin(spSimNew, root, req)
			tn := time.Now()
			c := sim.DefaultConfig(t.h.disc)
			c.Duration = sc.simDuration
			c.Seed = seed
			jobs = append(jobs, simJob{s: sim.New(c), trace: tt, rate: ri, seed: seed})
			tl.newS += time.Since(tn).Seconds()
			tl.builds++
			tr.end(sp, 0)
		}
	}
	setup := time.Since(t0).Seconds()
	peak.collect() // every simulator of the pass is live

	before := readUsage()
	t1 := time.Now()
	var processed int64
	for _, jb := range jobs {
		sp := tr.begin(spSimRun, root, req)
		tr0 := time.Now()
		res := jb.s.Run(jb.trace)
		tl.runS += time.Since(tr0).Seconds()
		tr.end(sp, int64(res.Processed))
		processed += int64(res.Processed)
		c := &tl.cells[jb.rate]
		c.runs++
		c.processed += res.Processed
		c.imisses += res.IMissesPerMsg
		c.dmisses += res.DMissesPerMsg
		c.batch += res.MeanBatch
		c.p50 += res.P50Latency
		c.p99 += res.P99Latency
		r.check(res.Offered == res.Processed+res.Dropped,
			fmt.Sprintf("%s at %v/s seed %d: offered %d != processed %d + dropped %d",
				t.h.name, simRates[jb.rate], jb.seed, res.Offered, res.Processed, res.Dropped))
		// A message the model dropped at its full buffer is a simulated
		// outcome (conventional saturates at 8000/s); a failure is a
		// message the simulator lost track of.
		r.attempted += int64(res.Offered)
		r.failed += int64(res.Offered - res.Processed - res.Dropped)
	}
	t.side.record(processed, time.Since(t1), before, readUsage())
	tr.end(root, 0)
	tr.boundary()
	return setup
}
