package fleet

import (
	"fmt"

	"ldlp/internal/faults"
	"ldlp/internal/flowtable"
	"ldlp/internal/mbuf"
)

// LinkConfig models one directed link of the peer graph: propagation
// delay (fixed + jittered + distance-weighted), serialization at a
// finite bandwidth, and an optional per-link fault config. The zero
// value is an ideal link (instant, lossless).
type LinkConfig struct {
	// Latency is the fixed one-way propagation delay in seconds.
	Latency float64
	// Jitter adds a uniform [0, Jitter) seconds per frame, drawn from a
	// per-link splitmix64 stream (deterministic per fleet seed).
	Jitter float64
	// DistanceWeight adds seconds per unit of topology coordinate
	// distance between the endpoints — far corners of the unit square
	// are slower than neighbours.
	DistanceWeight float64
	// Bandwidth in bits/second; frames serialize FIFO at this rate
	// before propagation. 0 means infinite (no serialization delay).
	Bandwidth float64
	// Faults, when non-nil, runs every frame on this link through a
	// faults.Injector (loss, bursts, duplication, reordering, extra
	// delay, bit corruption, partitions) seeded from the fleet seed and
	// the (src, dst) pair.
	Faults *faults.Config
}

// LANLink is a datacenter-flavoured preset: 50 µs propagation at
// 1 Gbit/s.
func LANLink() LinkConfig {
	return LinkConfig{Latency: 50e-6, Bandwidth: 1e9}
}

// WANLink is a wide-area preset: 10 ms propagation, 2 ms jitter,
// 100 Mbit/s.
func WANLink() LinkConfig {
	return LinkConfig{Latency: 10e-3, Jitter: 2e-3, Bandwidth: 100e6}
}

// GeoLink weights latency by topology distance: 1 ms floor plus 40 ms
// across the full unit square (roughly a continent) at 622 Mbit/s.
func GeoLink() LinkConfig {
	return LinkConfig{Latency: 1e-3, DistanceWeight: 40e-3, Bandwidth: 622e6}
}

// FaultyLink overlays a named faults preset (see faults.PresetNames) on
// a base link. Panics on an unknown preset name, mirroring faults.New's
// fail-fast contract.
func FaultyLink(base LinkConfig, preset string) LinkConfig {
	cfg, ok := faults.Presets()[preset]
	if !ok {
		panic(fmt.Sprintf("fleet: unknown faults preset %q", preset))
	}
	base.Faults = &cfg
	return base
}

// prng is a splitmix64 stream — one per link for jitter draws, so a
// link's jitter sequence depends only on the fleet seed and the link
// identity, never on global state or other links' traffic.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	return flowtable.Mix64(p.state)
}

func (p *prng) float64() float64 { return float64(p.next()>>11) / (1 << 53) }

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// heldReorder is a frame parked by a reorder verdict: it is released
// after span later frames on the same link have overtaken it.
type heldReorder struct {
	m      *mbuf.Mbuf
	sentAt float64
	span   int
}

// linkState is the mutable per-directed-link runtime: the resolved
// config, the lazily created fault injector (a seeded rand.Rand is
// ~5 KB; a 1000-node mesh has a million potential links, so injectors
// materialize only for links that carry traffic — lazily is still
// deterministic because the event order that first touches a link is),
// the serialization horizon, and the reorder holdback queue.
type linkState struct {
	src, dst  int32
	cfg       LinkConfig
	dist      float64
	inj       *faults.Injector
	jit       prng
	busyUntil float64
	held      []heldReorder
}

func (f *Fleet) link(src, dst int32) *linkState {
	key := uint64(src)<<32 | uint64(uint32(dst))
	if ls, ok := f.links[key]; ok {
		return ls
	}
	cfg := f.cfg.Link
	if f.cfg.LinkFor != nil {
		cfg = f.cfg.LinkFor(int(src), int(dst))
	}
	ls := &linkState{
		src:  src,
		dst:  dst,
		cfg:  cfg,
		dist: f.cfg.Topology.Dist(int(src), int(dst)),
		jit:  prng{state: uint64(f.cfg.Seed)*0x100000001b3 ^ key},
	}
	if cfg.Faults != nil {
		seed := f.cfg.Seed*1_000_003 + int64(src)*1_000_000 + int64(dst) + 1
		ls.inj = faults.New(*cfg.Faults, seed)
	}
	f.links[key] = ls
	f.linkList = append(f.linkList, ls)
	return ls
}
