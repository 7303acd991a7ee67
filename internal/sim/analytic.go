package sim

import "ldlp/internal/core"

// AnalyticCosts reduces the cache-level machine model to four
// closed-form service-time constants (seconds), the calibration the
// fleet simulator charges per process event. Driving thousands of hosts
// through the full cache simulation would dominate the event loop;
// these constants capture the same first-order story §2/§3 tell:
//
//   - perMsg: a conventional call-through stack touches every layer's
//     code per message, and with the combined working set over the
//     paper's 8 KB caches each layer's instructions miss — so each
//     message pays the full issue + icache-refill cost in every layer.
//   - perMsgBatched: inside an LDLP batch the layer's code is already
//     resident; a batched message pays only issue cycles plus the ~40
//     cycle queue handling per layer (§3.2).
//   - perBatch: the first message of each batch repopulates every
//     layer's instruction cache once — the cold cost amortized across
//     the batch, which is exactly why batching wins.
//   - perByte: the data loop, issue plus one dcache refill per line.
//
// This is the project's only closed-form account of the paper's result
// — §6's rule of thumb, "every message fetches every code line once" —
// and TestModelMatchesSimulator validates it against the cache-level
// simulator. With the paper's §4 configuration it works out to ~261 µs
// per message conventional vs ~192 µs + 71 µs per message batched:
// break-even at a batch of two, 3.09x at the 14-message cache-fit batch
// (2.94x once a 552-byte message's data loop is charged) — matching
// the small-message speedups of Figure 6.
func (c Config) AnalyticCosts() (perMsg, perMsgBatched, perBatch, perByte float64) {
	hz := c.Machine.ClockHz
	iLine := c.Machine.ICache.LineSize
	codeLines := float64((c.LayerCode + iLine - 1) / iLine)
	coldRefill := codeLines * float64(c.Machine.ICache.MissPenalty)
	layers := float64(c.Layers)

	perMsg = layers * (c.IssueFixed + coldRefill) / hz
	perMsgBatched = layers * (c.IssueFixed + c.QueueOpCycles) / hz
	perBatch = layers * coldRefill / hz
	perByte = (c.IssuePerByte + float64(c.Machine.DCache.MissPenalty)/float64(c.Machine.DCache.LineSize)) / hz
	return perMsg, perMsgBatched, perBatch, perByte
}

// AnalyticCyclesPerMsg is what the AnalyticCosts model charges one
// msgBytes message under c.Discipline, in cycles: an equal share of a
// batch-message batch under LDLP, the call-through cost otherwise.
func (c Config) AnalyticCyclesPerMsg(batch, msgBytes int) float64 {
	perMsg, perMsgBatched, perBatch, perByte := c.AnalyticCosts()
	cost := perMsg
	if c.Discipline == core.LDLP {
		cost = perBatch/float64(batch) + perMsgBatched
	}
	return (cost + float64(msgBytes)*perByte) * c.Machine.ClockHz
}
