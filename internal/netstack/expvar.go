// Monitoring hooks: the pool and queue-depth counters a perf
// investigation wants next to a CPU or heap profile, exposed both as
// plain accessors and through the standard expvar registry (so any
// binary that serves net/http gets them on /debug/vars for free).
package netstack

import (
	"expvar"
	"strconv"
	"sync"

	"ldlp/internal/mbuf"
	"ldlp/internal/telemetry"
)

// QueueDepths reports the receive engine's current input-queue depths:
// one entry per shard for a sharded host, a single entry (messages
// enqueued inside the engine) for a single-threaded one. A point-in-time
// snapshot for monitoring.
func (h *Host) QueueDepths() []int {
	if h.sharded {
		return h.shards.QueueDepths()
	}
	return []int{h.stack.Pending()}
}

// expvarHosts maps a legacy alias name to the current *Host behind it,
// so tests (and long-lived servers that rebuild their Net) can
// re-publish a name: the expvar registry only ever holds one Func per
// name, and that Func reads the live host from here. Canonical
// per-instance names ("netstack.<name>.<id>") never collide and are
// published directly.
var (
	expvarMu    sync.Mutex
	expvarHosts = map[string]*Host{}
	expvarIDs   = map[int]bool{}
	expvarPool  sync.Once
)

// expvars builds the host's published variable map: queue depths, frame
// and drop counters, engine stats, and the telemetry histogram
// summaries (batch sizes, transmit flushes) from the host's domain.
func (h *Host) expvars() map[string]any {
	hists := map[string]telemetry.HistSummary{}
	snap := h.tel.Snapshot()
	for _, e := range snap.Hists {
		hists[e.Name] = e.Hist.Summary()
	}
	return map[string]any{
		"id":          h.id,
		"queueDepths": h.QueueDepths(),
		"framesIn":    h.Counters.FramesIn,
		"framesOut":   h.Counters.FramesOut,
		"tcpFastPath": h.Counters.TCPFastPath,
		"tcpSlowPath": h.Counters.TCPSlowPath,
		"stackStats":  h.StackStats(),
		"shards":      h.ShardTransportStats(),
		"flows":       h.FlowStats(),
		"dispatch":    h.DispatchStats(),
		"telemetry":   hists,
	}
}

// PublishExpvars registers this host's counters with the expvar
// registry and — once per process — the shared mbuf pool as
// "netstack.mbufpool".
//
// Two names are published per host. The canonical
// "netstack.<name>.<id>" is unique per host instance (the id comes
// from the process-wide host sequence), so two same-named hosts —
// e.g. a test building a fresh Net while the old one's vars are still
// registered — can never silently read each other's counters. The
// legacy "netstack.<name>" alias is kept for dashboards keyed by host
// name alone; re-publishing rebinds the alias to the newest host
// rather than panicking, so pumped-and-discarded Nets keep working.
func (h *Host) PublishExpvars() {
	expvarPool.Do(func() {
		expvar.Publish("netstack.mbufpool", expvar.Func(func() any {
			s := mbuf.PoolStats()
			return map[string]int64{
				"allocs": s.Allocs, "frees": s.Frees,
				"inUse": s.InUse, "clusters": s.Clusters,
				"heapAllocs": s.HeapAllocs,
			}
		}))
	})

	canonical := "netstack." + h.name + "." + strconv.Itoa(h.id)
	alias := "netstack." + h.name
	expvarMu.Lock()
	_, aliased := expvarHosts[alias]
	expvarHosts[alias] = h
	canonicalDone := expvarIDs[h.id]
	expvarIDs[h.id] = true
	expvarMu.Unlock()

	if !canonicalDone {
		expvar.Publish(canonical, expvar.Func(func() any {
			return h.expvars()
		}))
	}
	if aliased {
		return
	}
	expvar.Publish(alias, expvar.Func(func() any {
		expvarMu.Lock()
		cur := expvarHosts[alias]
		expvarMu.Unlock()
		return cur.expvars()
	}))
}
