package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ldlp/internal/core"
	"ldlp/internal/layers"
	"ldlp/internal/mbuf"
	"ldlp/internal/netstack"
	"ldlp/internal/telemetry"
)

const (
	echoPort    = 7
	rrPort      = 80
	clientPort0 = 20000
	minPayload  = 32
	maxPayload  = 552 // the paper's message size
	rrPayload   = 64
	payloadPool = 256
	churnEvery  = 64  // one connection closed and re-dialled per this many operations
	churnBlocks = 125 // churn schedule length, in blocks of churnEvery
	tickEvery   = 32  // operations between Net.Tick calls
	tickDT      = 0.01
)

// netEnv is one discipline's network for a netstack workload: the Net,
// its hosts and sockets, and the closed-loop client state.
type netEnv interface {
	// step runs one closed-loop unit (a UDP round, one RR operation)
	// and returns the operations it completed.
	step(t *tracer, lat *latencies) (int64, error)
	hosts() []*netstack.Host
	// sockDrops counts datagrams and SYNs the sockets dropped.
	sockDrops() int64
	ledger() (attempted, failed int64)
	net() *netstack.Net
}

// netWorkload describes one netstack workload to the shared driver.
type netWorkload struct {
	// build makes one discipline's network from the seeded inputs.
	build func(s scale, opts netstack.Options, seed int64, corrupt int) (netEnv, error)
	// harvest is how many step calls pass between flight-recorder
	// harvests in the traced run, and ring the recorder depth that
	// holds the events of that many calls with room to spare (a
	// harvest reads the whole ring, so a deeper one costs more).
	harvest, ring int
}

// udpClient is one closed-loop UDP client with one request in flight.
type udpClient struct {
	sock   *netstack.UDPSock
	offset int // start of this client's walk through the payload pool
	next   int
	req    []byte
	sent   time.Time
}

type udpEnv struct {
	n        *netstack.Net
	hostList []*netstack.Host
	server   *netstack.UDPSock
	serverIP layers.IPAddr
	clients  []udpClient
	payloads [][]byte
	round    int64
	// corrupt, when > 0, makes the server flip a byte of every
	// corrupt-th reply (the benchmark's own test of its check).
	corrupt           int
	echoed            int
	attempted, failed int64
}

// udpPayloads draws the pool of request payloads: sizes uniform in
// [minPayload, maxPayload], bytes random.
func udpPayloads(rng *rand.Rand) [][]byte {
	out := make([][]byte, payloadPool)
	for i := range out {
		b := make([]byte, minPayload+rng.Intn(maxPayload-minPayload+1))
		rng.Read(b)
		out[i] = b
	}
	return out
}

func buildUDPEcho(s scale, opts netstack.Options, seed int64, corrupt int) (netEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &udpEnv{n: netstack.NewNet(), payloads: udpPayloads(rng), corrupt: corrupt}
	e.serverIP = layers.IPAddr{10, 1, 0, 1}
	srv := e.n.AddHost("server", e.serverIP, opts)
	e.hostList = append(e.hostList, srv)
	var err error
	if e.server, err = srv.UDPSocket(echoPort); err != nil {
		return nil, err
	}
	for h := 0; h < s.udpHosts; h++ {
		host := e.n.AddHost(fmt.Sprintf("client%d", h), layers.IPAddr{10, 1, 1, byte(h + 1)}, opts)
		e.hostList = append(e.hostList, host)
		for j := 0; j < s.udpSocks; j++ {
			sock, err := host.UDPSocket(uint16(clientPort0 + len(e.clients)))
			if err != nil {
				return nil, err
			}
			e.clients = append(e.clients, udpClient{sock: sock, offset: rng.Intn(payloadPool)})
		}
	}
	return e, nil
}

func (e *udpEnv) hosts() []*netstack.Host { return e.hostList }
func (e *udpEnv) net() *netstack.Net      { return e.n }
func (e *udpEnv) ledger() (int64, int64)  { return e.attempted, e.failed }

func (e *udpEnv) sockDrops() int64 {
	d := e.server.DroppedCount()
	for _, c := range e.clients {
		d += c.sock.DroppedCount()
	}
	return d
}

// step is one round: every client sends its next request, the server
// echoes every datagram it received, and every client checks its reply
// byte for byte. The round ends with nothing in flight.
func (e *udpEnv) step(t *tracer, lat *latencies) (int64, error) {
	e.round++
	base := e.round * int64(len(e.clients))
	root := t.begin(spRound, -1, e.round)
	for i := range e.clients {
		c := &e.clients[i]
		c.req = e.payloads[(c.offset+c.next)%len(e.payloads)]
		c.next++
		c.sent = time.Now()
		sp := t.begin(spSend, root, base+int64(i))
		c.sock.SendTo(e.serverIP, echoPort, c.req)
		t.end(sp, 0)
	}
	e.pump(t, root)
	for range e.clients {
		sp := t.begin(spRecv, root, e.round)
		d, ok := e.server.Recv()
		t.end(sp, 0)
		if !ok {
			break
		}
		reply := d.Data
		e.echoed++
		if e.corrupt > 0 && e.echoed%e.corrupt == 0 {
			reply = append([]byte(nil), reply...)
			reply[len(reply)/2] ^= 0xff
		}
		sp = t.begin(spSend, root, base+int64(d.SrcPort-clientPort0))
		e.server.SendTo(d.Src, d.SrcPort, reply)
		t.end(sp, 0)
	}
	e.pump(t, root)
	for i := range e.clients {
		c := &e.clients[i]
		sp := t.begin(spRecv, root, base+int64(i))
		d, ok := c.sock.Recv()
		t.end(sp, 0)
		done := time.Now()
		e.attempted++
		if !ok || !bytes.Equal(d.Data, c.req) {
			e.failed++
			continue
		}
		lat.add(float64(done.Sub(c.sent).Nanoseconds()))
	}
	t.end(root, 0)
	return int64(len(e.clients)), nil
}

func (e *udpEnv) pump(t *tracer, root int32) {
	sp := t.begin(spPump, root, e.round)
	n := e.n.RunUntilIdle()
	t.end(sp, int64(n))
}

// rrConn is one established connection: the client's and the server's
// end.
type rrConn struct{ c, s *netstack.TCPSock }

type tcpEnv struct {
	n              *netstack.Net
	client, server *netstack.Host
	l              *netstack.TCPListener
	conns          []rrConn
	payloads       [][]byte
	order          []int  // connection of operation k (mod len)
	churn          []bool // operation k (mod len) closes and re-dials its connection
	k              int64
	buf, rbuf      []byte
	// corrupt, when > 0, makes the server flip a byte of every
	// corrupt-th reply.
	corrupt           int
	attempted, failed int64
}

func buildTCPRR(s scale, opts netstack.Options, seed int64, corrupt int) (netEnv, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &tcpEnv{n: netstack.NewNet(), corrupt: corrupt, buf: make([]byte, 4096), rbuf: make([]byte, 4096)}
	e.payloads = make([][]byte, payloadPool)
	for i := range e.payloads {
		e.payloads[i] = make([]byte, rrPayload)
		rng.Read(e.payloads[i])
	}
	// Rotation: successive seeded permutations of the connections, so
	// every connection carries one request per len(conns) operations.
	for p := 0; p < 32; p++ {
		e.order = append(e.order, rng.Perm(s.rrConns)...)
	}
	// Churn: one seeded position in every block of churnEvery. The
	// schedule's period is not a multiple of the rotation's, so over a
	// run the churn reaches every connection. The workload relies on
	// this invariant: no connection outlives 65,536 process-wide dials.
	// DialTCP takes ports from one process-global uint16 counter that
	// wraps without skipping ports in use, so a connection that lived
	// longer would collide with a new dial, which would never establish.
	e.churn = make([]bool, churnBlocks*churnEvery)
	for b := 0; b < len(e.churn); b += churnEvery {
		e.churn[b+rng.Intn(churnEvery)] = true
	}
	e.client = e.n.AddHost("client", layers.IPAddr{10, 2, 0, 1}, opts)
	e.server = e.n.AddHost("server", layers.IPAddr{10, 2, 0, 2}, opts)
	var err error
	if e.l, err = e.server.ListenTCP(rrPort); err != nil {
		return nil, err
	}
	e.conns = make([]rrConn, s.rrConns)
	for i := range e.conns {
		if e.conns[i], err = e.dial(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

var errDial = errors.New("dial did not establish")

func (e *tcpEnv) dial() (rrConn, error) {
	c := e.client.DialTCP(e.server.IP(), rrPort)
	e.n.RunUntilIdle()
	s := e.l.Accept()
	if s == nil || !c.Established() {
		return rrConn{}, errDial
	}
	return rrConn{c: c, s: s}, nil
}

func (e *tcpEnv) hosts() []*netstack.Host { return []*netstack.Host{e.client, e.server} }
func (e *tcpEnv) net() *netstack.Net      { return e.n }
func (e *tcpEnv) ledger() (int64, int64)  { return e.attempted, e.failed }
func (e *tcpEnv) sockDrops() int64        { return e.l.DroppedCount() }

// step is one request/response: a churn operation first closes its
// connection on both ends and dials a replacement; every tickEvery-th
// operation pumps with Net.Tick, so timers run inside its latency.
func (e *tcpEnv) step(t *tracer, lat *latencies) (int64, error) {
	k := e.k
	e.k++
	i := e.order[k%int64(len(e.order))]
	req := e.payloads[k%int64(len(e.payloads))]
	root := t.begin(spOp, -1, k)
	start := time.Now()
	if e.churn[k%int64(len(e.churn))] {
		old := e.conns[i]
		sp := t.begin(spClose, root, k)
		old.c.Close()
		e.n.RunUntilIdle()
		old.s.Close()
		e.n.RunUntilIdle()
		t.end(sp, 0)
		sp = t.begin(spDial, root, k)
		c, err := e.dial()
		t.end(sp, 0)
		if err != nil {
			return 0, fmt.Errorf("tcp-rr-churn operation %d: %w", k, err)
		}
		e.conns[i] = c
	}
	conn := e.conns[i]
	sp := t.begin(spSend, root, k)
	err := conn.c.Send(req)
	t.end(sp, 0)
	if k%tickEvery == tickEvery-1 {
		sp = t.begin(spTick, root, k)
		e.n.Tick(tickDT)
		t.end(sp, 0)
	} else {
		e.pump(t, root, k)
	}
	sp = t.begin(spRecv, root, k)
	n := conn.s.Recv(e.buf)
	t.end(sp, 0)
	reply := e.buf[:n]
	if e.corrupt > 0 && (k+1)%int64(e.corrupt) == 0 && n > 0 {
		reply[n/2] ^= 0xff
	}
	sp = t.begin(spSend, root, k)
	if serr := conn.s.Send(reply); err == nil {
		err = serr
	}
	t.end(sp, 0)
	e.pump(t, root, k)
	sp = t.begin(spRecv, root, k)
	m := conn.c.Recv(e.rbuf)
	t.end(sp, 0)
	done := time.Now()
	e.attempted++
	if err != nil || !bytes.Equal(e.rbuf[:m], req) {
		e.failed++
	} else {
		lat.add(float64(done.Sub(start).Nanoseconds()))
	}
	t.end(root, 0)
	return 1, nil
}

func (e *tcpEnv) pump(t *tracer, root int32, k int64) {
	sp := t.begin(spPump, root, k)
	n := e.n.RunUntilIdle()
	t.end(sp, int64(n))
}

// hostDrops sums every counter a host bumps when it drops a frame on
// its own: header and checksum failures, no socket, a full receive
// path, connections reaped after retransmission gave up.
func hostDrops(h *netstack.Host) int64 {
	c := &h.Counters
	return c.BadEther + c.BadIP + c.BadTCP + c.BadUDP + c.BadICMP + c.NoSocket +
		c.TimeoutDrops + h.StackStats().Dropped
}

// netTarget is one measured network: its discipline, whether it is
// traced, and its running tallies.
type netTarget struct {
	h      half
	traced bool
	env    netEnv
	side   *side
	tr     *tracer
	steps  int
}

// runNetstack drives a netstack workload: build every network
// setupReps times (the last build is measured), warm each up, then
// alternate fixed-length slices between them until the time is spent.
func runNetstack(cfg config, wl netWorkload) (*report, error) {
	r := newReport()
	peak := newHeapPeak()
	sc := cfg.scale
	var targets []*netTarget
	var lc *layerClock
	if cfg.trace {
		lc = newLayerClock()
	}
	base := time.Now()
	build := func() ([]*netTarget, error) {
		var out []*netTarget
		for _, traced := range tracedSet(cfg.trace) {
			for _, h := range halves {
				opts := netstack.DefaultOptions(h.disc)
				t := &netTarget{h: h, traced: traced}
				if traced {
					// The recorder's own layer events, on a monotonic
					// clock.
					t.tr = newTracer(h.name, base)
					opts.TelemetryClock = t.tr.clock
					opts.TelemetryRing = wl.ring
				}
				env, err := wl.build(sc, opts, cfg.seed, cfg.corrupt)
				if err != nil {
					return nil, fmt.Errorf("%s set-up: %w", h.name, err)
				}
				t.env = env
				out = append(out, t)
			}
		}
		return out, nil
	}
	var setups []float64
	ref.probe()
	for rep := 0; rep < sc.setupReps; rep++ {
		// Each set-up starts from a collected heap, so the previous
		// one's garbage is not charged to it.
		runtime.GC()
		t0 := time.Now()
		ts, err := build()
		if err != nil {
			return nil, err
		}
		// Calibrated by the speed around this set-up alone.
		setups = append(setups, time.Since(t0).Seconds()*ref.span())
		if rep < sc.setupReps-1 {
			for _, t := range ts {
				t.env.net().Close()
			}
			continue
		}
		targets = ts
	}
	r.set("setup_s", median(setups), "s")
	for _, t := range targets {
		t.side = newSide()
	}
	peak.collect()

	// Warm-up: operations before this count are not timed.
	scratch := new(latencies)
	for _, t := range targets {
		for ops := int64(0); ops < int64(sc.warmupOps); {
			n, err := t.env.step(nil, scratch)
			if err != nil {
				return nil, err
			}
			ops += n
		}
		if t.traced {
			lc.harvest(t.env.hosts())
		}
	}
	if lc != nil {
		lc.reset()
	}

	sliceDur := time.Duration(cfg.seconds / float64(len(targets)*sc.slices) * float64(time.Second))
	ref.probe()
	for pass := 0; pass < sc.slices; pass++ {
		for j := range targets {
			if err := slice(targets[inOrder(pass, j, len(targets))], sliceDur, wl.harvest, lc); err != nil {
				return nil, err
			}
		}
	}

	peak.collect() // every network is still live
	for _, t := range targets {
		a, f := t.env.ledger()
		r.attempted += a
		r.failed += f
	}
	for _, t := range targets {
		if !t.traced {
			t.side.endToEnd(r, t.h.name)
		}
	}
	if cfg.trace {
		netstackLayers(r, targets, lc)
	}
	problems, frameDrops := netChecks(targets)
	r.failed += frameDrops
	r.problems = append(r.problems, problems...)
	for _, t := range targets {
		t.env.net().Close()
	}
	inUse := mbuf.PoolStats().InUse
	r.check(inUse == 0, fmt.Sprintf("mbuf pool holds %d buffers after teardown", inUse))
	r.check(r.failed == 0, fmt.Sprintf("%d of %d operations failed", r.failed, r.attempted))
	r.set("mbuf.in_use_end", float64(inUse), "count")
	r.set("heap_peak_mb", peak.mb(), "MB")
	if cfg.trace {
		var trs []*tracer
		for _, t := range targets {
			if t.traced {
				trs = append(trs, t.tr)
			}
		}
		n, err := writeSpans(cfg.spanDir, cfg.spanFile, trs)
		if err != nil {
			return nil, err
		}
		r.set("trace.spans", float64(n), "count")
	}
	return r, nil
}

// slice runs one target for dur and records it.
func slice(t *netTarget, dur time.Duration, harvest int, lc *layerClock) error {
	before := readUsage()
	start := time.Now()
	var ops int64
	for time.Since(start) < dur {
		n, err := t.env.step(t.tr, t.side.cur)
		if err != nil {
			return err
		}
		ops += n
		if t.traced {
			t.tr.boundary()
			if t.steps++; t.steps%harvest == 0 {
				lc.harvest(t.env.hosts())
			}
		}
	}
	elapsed := time.Since(start)
	if t.traced {
		lc.harvest(t.env.hosts())
	}
	t.side.record(ops, elapsed, before, readUsage())
	return nil
}

// netChecks verifies that no host dropped a frame on its own and that
// TCP never retransmitted. It returns the problems and the number of
// frames dropped.
func netChecks(targets []*netTarget) ([]string, int64) {
	var problems []string
	var drops int64
	for _, t := range targets {
		var d, rx int64
		for _, h := range t.env.hosts() {
			d += hostDrops(h)
			rx += h.Counters.Retransmits
		}
		d += t.env.sockDrops()
		drops += d
		if d != 0 {
			problems = append(problems, fmt.Sprintf("%s: hosts dropped %d frames", t.h.name, d))
		}
		if rx != 0 {
			problems = append(problems, fmt.Sprintf("%s: %d TCP retransmissions", t.h.name, rx))
		}
	}
	return problems, drops
}

// netstackLayers sets the per-layer metrics of a netstack workload from
// the traced LDLP network, and the tracing overhead from each
// discipline's traced and untraced pair.
func netstackLayers(r *report, targets []*netTarget, lc *layerClock) {
	var ldlp *netTarget
	plain := map[string]*netTarget{}
	for _, t := range targets {
		if !t.traced {
			plain[t.h.name] = t
			continue
		}
		overhead(r, t.h.name, plain[t.h.name].side, t.side)
		if t.h.disc == core.LDLP {
			ldlp = t
		}
	}
	plain["ldlp"].side.runtimeLayer(r)
	tr := ldlp.tr

	r.set("netstack.send_ns", tr.selfNS(spSend), "ns")
	r.set("netstack.recv_ns", tr.selfNS(spRecv), "ns")
	pump := tr.agg[spPump]
	r.set("netstack.pump_ns_per_frame", ratio(float64(pump.dur), float64(pump.n)), "ns")
	r.set("netstack.tick_ns", tr.durNS(spTick), "ns")
	r.set("netstack.dial_ns", tr.durNS(spDial), "ns")
	r.set("netstack.close_ns", tr.durNS(spClose), "ns")

	a, _ := ldlp.env.ledger()
	var c netstack.Counters
	var qops, drops int64
	var batch telemetry.HistSnapshot
	var recorded uint64
	var flow netstack.FlowStats
	for _, h := range ldlp.env.hosts() {
		hc := &h.Counters
		c.FramesIn += hc.FramesIn
		c.TCPFastPath += hc.TCPFastPath
		c.TCPSlowPath += hc.TCPSlowPath
		c.DelayedAcks += hc.DelayedAcks
		c.Retransmits += hc.Retransmits
		drops += hostDrops(h)
		qops += h.StackStats().QueueOps
		snap := h.Telemetry().Snapshot()
		if b, ok := snap.Hist("ldlp-batch"); ok {
			batch.Merge(b)
		}
		for _, ts := range snap.Tracers {
			recorded += ts.Recorded
		}
		fs := h.FlowStats()
		flow.CacheHits += fs.CacheHits
		flow.CacheMisses += fs.CacheMisses
		flow.ProbeDepthP99 = max(flow.ProbeDepthP99, fs.ProbeDepthP99)
	}
	drops += ldlp.env.sockDrops()
	frames := float64(c.FramesIn)
	r.set("tcp.fastpath_ratio", ratio(float64(c.TCPFastPath), float64(c.TCPFastPath+c.TCPSlowPath)), "ratio")
	r.set("tcp.delayed_acks_per_op", ratio(float64(c.DelayedAcks), float64(a)), "count")
	r.set("tcp.retransmits", float64(c.Retransmits), "count")
	r.set("netstack.drops", float64(drops), "count")
	r.set("core.batch_mean", batch.Mean(), "count")
	r.set("core.batch_p99", batch.Quantile(0.99), "count")
	r.set("core.queue_ops_per_frame", ratio(float64(qops), frames), "count")
	r.set("telemetry.events_per_frame", ratio(float64(recorded), frames), "count")
	lc.set(r)
	lookups := float64(flow.CacheHits + flow.CacheMisses)
	r.set("flowtable.cache_hit_ratio", ratio(float64(flow.CacheHits), lookups), "ratio")
	r.set("flowtable.probe_p99", flow.ProbeDepthP99, "count")
	r.set("flowtable.lookups_per_op", ratio(lookups, float64(a)), "count")
}
