package sim

import (
	"math"
	"testing"

	"ldlp/internal/core"
	"ldlp/internal/traffic"
)

// TestAnalyticCostsMatchPaperCalibration pins the closed-form constants
// for the §4 machine: the fleet simulator's service-time model must not
// drift from the cache-level calibration without this test noticing.
func TestAnalyticCostsMatchPaperCalibration(t *testing.T) {
	perMsg, perMsgBatched, perBatch, perByte := DefaultConfig(core.LDLP).AnalyticCosts()

	// 5 layers x (1376 issue + 192 lines x 20 cycle refill) / 100 MHz.
	wantMsg := 5 * (1376 + 192*20.0) / 100e6
	// 5 layers x (1376 issue + 40 queue-op) / 100 MHz.
	wantWarm := 5 * (1376 + 40.0) / 100e6
	// 5 layers x 192 lines x 20 cycle refill / 100 MHz.
	wantBatch := 5 * 192 * 20.0 / 100e6
	// 0.5 issue + 20/32 refill cycles per byte / 100 MHz.
	wantByte := (0.5 + 20.0/32) / 100e6

	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"perMsg", perMsg, wantMsg},
		{"perMsgBatched", perMsgBatched, wantWarm},
		{"perBatch", perBatch, wantBatch},
		{"perByte", perByte, wantByte},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	// The cache-fit batch of 14 wins by ~3x (Figure 6's small-message
	// regime): 3.09x on the fixed costs alone, 2.94x once a 552-byte
	// message's data loop is charged to both sides.
	fourteen := (perBatch + 14*perMsgBatched) / 14
	if ratio := perMsg / fourteen; math.Abs(ratio-3.09) > 0.005 {
		t.Errorf("batch-of-14 speedup = %.3f, want 3.09", ratio)
	}
	conv := DefaultConfig(core.Conventional)
	ldlp := DefaultConfig(core.LDLP)
	if ratio := conv.AnalyticCyclesPerMsg(0, 552) / ldlp.AnalyticCyclesPerMsg(14, 552); math.Abs(ratio-2.94) > 0.005 {
		t.Errorf("batch-of-14 speedup with 552 B = %.3f, want 2.94", ratio)
	}
}

// TestRuleOfThumbNumbers checks §6's rule of thumb on the kept model:
// a conventional message fetches every code line once, a batched one
// fetches them once per batch.
func TestRuleOfThumbNumbers(t *testing.T) {
	conv := DefaultConfig(core.Conventional)
	ldlp := DefaultConfig(core.LDLP)
	// Conventional: 5 layers x 192 code lines x 20 cycles = 19200 stall
	// + issue 5 x 1376 = 6880 + the 552-byte data loop.
	c := conv.AnalyticCyclesPerMsg(0, 552)
	if c < 26000 || c > 28000 {
		t.Errorf("conventional cycles/msg = %.0f, expect ≈26.7k", c)
	}
	// LDLP at the saturated simulator's batch of 12 amortizes the 19200.
	if l := ldlp.AnalyticCyclesPerMsg(12, 552); l > c/2.5 {
		t.Errorf("ldlp cycles/msg = %.0f vs conv %.0f: amortization too weak", l, c)
	}
	// A batch of one costs slightly MORE than call-through: queue
	// handling is pure overhead.
	if l := ldlp.AnalyticCyclesPerMsg(1, 552); l <= c {
		t.Errorf("LDLP batch of 1 should pay the queueing overhead: %.0f <= %.0f", l, c)
	}
}

// TestCapacitiesBracketThePaperFigures checks the kept model's
// capacities at 100 MHz against Figure 6's shape: conventional
// saturates in the 3-4.5k msgs/s range, LDLP runs toward 10k
// (flattening past 8500 per Figure 5's caption).
func TestCapacitiesBracketThePaperFigures(t *testing.T) {
	conv := DefaultConfig(core.Conventional)
	ldlp := DefaultConfig(core.LDLP)
	cc := conv.Machine.ClockHz / conv.AnalyticCyclesPerMsg(0, 552)
	if cc < 3000 || cc > 4500 {
		t.Errorf("conventional capacity = %.0f msgs/s, want 3-4.5k", cc)
	}
	lc := ldlp.Machine.ClockHz / ldlp.AnalyticCyclesPerMsg(12, 552)
	if lc < 8000 || lc > 12000 {
		t.Errorf("LDLP capacity at batch 12 = %.0f msgs/s, want ≈10k", lc)
	}
	if sp := lc / cc; sp < 2 || sp > 4 {
		t.Errorf("speedup = %.2f, expect the paper's ≈2.5-3x", sp)
	}
}

// TestModelMatchesSimulator validates the closed-form model against the
// discrete-event simulator: the simulator reproduces the paper, the
// model explains the simulator.
func TestModelMatchesSimulator(t *testing.T) {
	// Conventional service time from the simulator (busy time per
	// message at moderate load).
	cfg := DefaultConfig(core.Conventional)
	cfg.Duration = 1
	res := New(cfg).Run(traffic.NewPoisson(2000, 552, 5))
	simCycles := res.BusyFrac * cfg.Duration * cfg.Machine.ClockHz / float64(res.Processed)
	model := cfg.AnalyticCyclesPerMsg(0, 552)
	if math.Abs(simCycles-model) > 0.07*model {
		t.Errorf("conventional: sim %.0f cy/msg vs model %.0f (>7%% apart)", simCycles, model)
	}

	// LDLP capacity: drive the simulator well past saturation and
	// compare achieved throughput with the model's capacity at the
	// batch size the saturated simulator actually forms.
	lcfg := DefaultConfig(core.LDLP)
	lcfg.Duration = 1
	lres := New(lcfg).Run(traffic.NewPoisson(20000, 552, 5))
	batch := int(math.Round(lres.MeanBatch))
	pred := lcfg.Machine.ClockHz / lcfg.AnalyticCyclesPerMsg(batch, 552)
	t.Logf("conventional: sim %.0f vs model %.0f cy/msg; LDLP at batch %d: sim %.0f vs model %.0f msgs/s",
		simCycles, model, batch, lres.Throughput, pred)
	if math.Abs(lres.Throughput-pred) > 0.15*pred {
		t.Errorf("LDLP capacity: sim %.0f msgs/s vs model %.0f (>15%% apart)", lres.Throughput, pred)
	}
}
