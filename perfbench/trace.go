package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ldlp/internal/netstack"
	"ldlp/internal/telemetry"
)

// spanName identifies the public call a span brackets.
type spanName uint8

const (
	spOp       spanName = iota // one operation (root)
	spRound                    // one UDP round of every client's operation (root)
	spSend                     // UDPSock.SendTo / TCPSock.Send
	spRecv                     // UDPSock.Recv / TCPSock.Recv
	spPump                     // Net.RunUntilIdle
	spTick                     // Net.Tick
	spDial                     // Host.DialTCP through Accept
	spClose                    // TCPSock.Close on both ends
	spFleetNew                 // fleet.SmallWorld + fleet.New
	spFleetRun                 // Fleet.Run
	spTraffic                  // Poisson generation + traffic.NewTrace
	spSimNew                   // sim.New
	spSimRun                   // Sim.Run
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "round", "send", "recv", "pump", "tick", "dial", "close",
	"fleet.new", "fleet.run", "traffic.gen", "sim.new", "sim.run",
}

// span is one recorded call: name, start, end, the span that caused it
// (an index into the same buffer, -1 for a root) and the request id all
// spans of one operation share. n is the work the call did, where it
// reports one (frames a pump delivered).
type span struct {
	name       spanName
	parent     int32
	req        int64
	start, end int64 // ns since the tracer's base
	n          int64
}

// spanAgg totals one span name: calls, work, wall time and self time
// (wall time minus the part its child spans cover).
type spanAgg struct {
	count, n, dur, self int64
}

// tracer records one target's spans in memory from the benchmark's own
// calls. A full buffer is folded into per-name totals at the next
// operation boundary; the first buffer's spans are kept and written out
// when the run ends. A nil *tracer records nothing.
type tracer struct {
	label string
	base  time.Time
	buf   []span
	kept  []span
	total int64
	agg   [numSpanNames]spanAgg
}

const spanBuffer = 1 << 16

func newTracer(label string, base time.Time) *tracer {
	return &tracer{label: label, base: base, buf: make([]span, 0, spanBuffer)}
}

// clock is a monotonic nanosecond clock on the tracer's timeline, for
// HostOptions.TelemetryClock.
func (t *tracer) clock() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(name spanName, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.buf = append(t.buf, span{name: name, parent: parent, req: req, start: t.clock()})
	return int32(len(t.buf) - 1)
}

func (t *tracer) end(i int32, n int64) {
	if t == nil {
		return
	}
	t.buf[i].end = t.clock()
	t.buf[i].n = n
}

// boundary is called between operations, when no span is open: it
// folds the buffer once it is nearly full, so appends never reallocate.
func (t *tracer) boundary() {
	if t != nil && len(t.buf) > cap(t.buf)-256 {
		t.fold()
	}
}

func (t *tracer) fold() {
	child := make([]int64, len(t.buf))
	for _, s := range t.buf {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.buf {
		a := &t.agg[s.name]
		d := s.end - s.start
		a.count++
		a.n += s.n
		a.dur += d
		a.self += d - child[i]
	}
	t.total += int64(len(t.buf))
	if t.kept == nil {
		t.kept = append([]span(nil), t.buf...)
	}
	t.buf = t.buf[:0]
}

// selfNS is the mean self time of one call of name.
func (t *tracer) selfNS(name spanName) float64 {
	a := t.agg[name]
	return ratio(float64(a.self), float64(a.count))
}

// durNS is the mean wall time of one call of name.
func (t *tracer) durNS(name spanName) float64 {
	a := t.agg[name]
	return ratio(float64(a.dur), float64(a.count))
}

// writeSpans folds what each tracer has left and writes the kept spans
// as JSON lines to dir/file, labelled with their tracer. It returns the
// number of spans recorded.
func writeSpans(dir, file string, trs []*tracer) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("span directory: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return 0, fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	var total int64
	for _, t := range trs {
		t.fold()
		total += t.total
		for i, s := range t.kept {
			fmt.Fprintf(w, `{"disc":%q,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d,"n":%d}`+"\n",
				t.label, i, spanNames[s.name], s.start, s.end, s.parent, s.req, s.n)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("span file: %w", err)
	}
	return total, nil
}

// layerNames are the netstack receive-path layers whose self time the
// traced run reports (icmp carries no traffic here).
var layerNames = []string{"device", "ether", "ip", "tcp", "udp", "socket"}

// layerClock turns the hosts' flight-recorder layer events, stamped on
// the tracer's monotonic clock, into per-layer self time. Layer passes
// do not nest under LDLP, so a pass's self time is its exit minus its
// enter. Harvests run between operations, when no pass is open, and
// often enough that no ring wraps in between; seen remembers how far
// each ring has been read.
type layerClock struct {
	seen map[*telemetry.Domain][]uint64
	ns   map[string]int64 // layer -> pass time
	msgs map[string]int64 // layer -> messages the passes processed
}

func newLayerClock() *layerClock {
	return &layerClock{
		seen: make(map[*telemetry.Domain][]uint64),
		ns:   make(map[string]int64),
		msgs: make(map[string]int64),
	}
}

func (lc *layerClock) harvest(hosts []*netstack.Host) {
	for _, h := range hosts {
		d := h.Telemetry()
		snap := d.Snapshot()
		seen := lc.seen[d]
		for len(seen) < len(snap.Tracers) {
			seen = append(seen, 0)
		}
		for ti, tr := range snap.Tracers {
			open := map[uint8]int64{}
			for _, ev := range tr.Events {
				if ev.Seq < seen[ti] {
					continue
				}
				switch ev.Kind {
				case telemetry.EvLayerEnter:
					open[ev.Layer] = ev.TS
				case telemetry.EvLayerExit:
					if at, ok := open[ev.Layer]; ok {
						name := tr.LayerName(int(ev.Layer))
						lc.ns[name] += ev.TS - at
						lc.msgs[name] += ev.Arg
						delete(open, ev.Layer)
					}
				}
			}
			seen[ti] = tr.Recorded
		}
		lc.seen[d] = seen
	}
}

// reset drops what has been harvested so far (the warm-up's passes).
func (lc *layerClock) reset() {
	clear(lc.ns)
	clear(lc.msgs)
}

// set reports ns per message for each layer.
func (lc *layerClock) set(r *report) {
	for _, name := range layerNames {
		r.set("layer."+name+".self_ns", ratio(float64(lc.ns[name]), float64(lc.msgs[name])), "ns")
	}
}
