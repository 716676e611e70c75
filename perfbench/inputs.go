package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"repro/internal/cluster"
	"repro/internal/detect"
	"repro/internal/e2e"
	"repro/internal/graph"
	"repro/internal/mc"
	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/tomo"
)

// Seed-space layout: every input stream is mc.RNG(mc.Split(seed, base+i), r),
// so the workloads' streams never overlap.
const (
	seedFig1Rounds  = 100
	seedBackbone    = 200
	seedSpike       = 300
	seedPerm        = 400
	seedRouted      = 500
	seedRoutedFresh = 600
	seedSchedule    = 700
)

// spikeDelay is the extra delay (ms) an on-path manipulator adds to a
// few measurement paths of a backbone round. It is not a consistent
// construction, so the Eq. 23 residual exposes it.
const spikeDelay = 400.0

// round is one measurement vector y' and the campaign that produced it.
type round struct {
	Y    []float64
	Kind string
}

// verdict is what a correct server answers for one round: the Eq. 23
// alarm, the residual norm ‖R·x̂ − y'‖₁ and the estimate x̂.
type verdict struct {
	Detected bool
	Norm     float64
	XHat     []float64
}

// sessionShape is how a session workload drives its stream.
type sessionShape struct {
	// LinesPerReq is how many NDJSON lines one stream request carries.
	// A stream runs under the server's request timeout (5 s by default),
	// so a request must stay well inside it.
	LinesPerReq int
	// ReqsPerCycle is how many stream requests go between two bursts.
	ReqsPerCycle int
	// RoundsPerLine is the batch size of one line.
	RoundsPerLine int
	// Packed selects packed rounds with slim verdicts; otherwise rounds
	// are JSON text and verdicts carry the full x̂.
	Packed bool
	// Burst is how many path mutations go back to back after each
	// request, alternating add and the remove that restores the digest.
	// An odd burst leaves the path set flipped, so the next request
	// streams over the other width.
	Burst int
	// Readers is how many clients only stream (clients 0..Readers-1);
	// the rest also send the bursts.
	Readers int
}

// addVariant is one path a session adds and later removes.
type addVariant struct {
	Walk []string
	path graph.Path
	// Pool holds the rounds streamed while the path is present (the base
	// pool with the duplicated path's reading appended).
	Pool []round
	want []verdict
}

// sessionInputs is everything a session workload sends.
type sessionInputs struct {
	Shape sessionShape
	Topo  serve.TopologyRequest
	Pool  []round
	Adds  []addVariant
	// Perm is each client's order over the pool.
	Perm [clients][]int

	sys  *tomo.System
	want []verdict
}

// clients is the number of load-generating goroutines (and connections)
// every workload uses: the box's CPU count, so the client never needs
// more parallelism than the server it shares the machine with.
const clients = 2

func genFig1(seed int64) (*sessionInputs, error) {
	scs, err := e2e.BuildScenarios(e2e.AllKinds(), seed)
	if err != nil {
		return nil, err
	}
	in := &sessionInputs{
		Shape: sessionShape{LinesPerReq: 64, ReqsPerCycle: 1, RoundsPerLine: 4, Burst: 2},
		sys:   scs[0].Sys,
	}
	if in.Topo, err = e2e.WireTopology("fig1", in.sys, 0); err != nil {
		return nil, err
	}
	const perKind = 48
	for k, sc := range scs {
		for r := 0; r < perKind; r++ {
			y, err := netsim.RunDelay(netsim.Config{
				Graph: sc.Sys.Graph(), Paths: sc.Sys.Paths(), LinkDelays: sc.TrueX,
				Jitter: e2e.TrafficJitter, ProbesPerPath: e2e.TrafficProbes,
				RNG: mc.RNG(mc.Split(seed, seedFig1Rounds+k), r), Plan: sc.Plan,
			})
			if err != nil {
				return nil, fmt.Errorf("fig1 %s round %d: %w", sc.Kind, r, err)
			}
			in.Pool = append(in.Pool, round{Y: y, Kind: string(sc.Kind)})
		}
	}
	// Fig. 1 has no spare paths: the write is a duplicate of an existing
	// measurement path, added and removed back to back.
	rng := mc.RNG(seed, seedFig1Rounds+99)
	for a := 0; a < 4; a++ {
		j := rng.Intn(in.sys.NumPaths())
		in.Adds = append(in.Adds, addVariant{Walk: in.Topo.Paths[j], path: in.sys.Paths()[j]})
	}
	in.permute(seed)
	return in, nil
}

// genBackbone builds a session workload over a backbone of the given
// link count with links/10 end-to-end paths: clean netsim rounds, a
// quarter of them with delay spikes on a few paths, and duplicated
// end-to-end paths as the path add/remove pairs.
func genBackbone(name string, links int, seed int64, shape sessionShape) (*sessionInputs, error) {
	sc, err := backboneScenario(name, links, topoSeed, mc.Split(seed, seedBackbone))
	if err != nil {
		return nil, err
	}
	in := &sessionInputs{Shape: shape, sys: sc.Sys}
	if in.Topo, err = e2e.WireTopology(name, sc.Sys, 0); err != nil {
		return nil, err
	}
	const n = 48
	pool, err := backboneRounds(sc, seed, n)
	if err != nil {
		return nil, err
	}
	in.Pool = pool
	rng := mc.RNG(seed, seedBackbone+1)
	extra := in.sys.NumPaths() - in.sys.NumLinks()
	for a := 0; a < 4; a++ {
		j := in.sys.NumLinks() + rng.Intn(extra)
		av := addVariant{Walk: in.Topo.Paths[j], path: in.sys.Paths()[j]}
		if shape.Burst%2 == 1 {
			for _, r := range pool {
				y := append(append(make([]float64, 0, len(r.Y)+1), r.Y...), r.Y[j])
				av.Pool = append(av.Pool, round{Y: y, Kind: r.Kind})
			}
		}
		in.Adds = append(in.Adds, av)
	}
	in.permute(seed)
	return in, nil
}

// topoSeed fixes every backbone topology: the run's seed varies the
// traffic (link delays, jitter, spikes, orders, schedules) over the same
// networks, so runs with different seeds measure the same system.
const topoSeed = 1

// backboneScenario is e2e.BackboneScenario on the topology of topoSeed
// with true link delays drawn from seed.
func backboneScenario(name string, links int, topoSeed, seed int64) (*e2e.Scenario, error) {
	sc, err := e2e.BackboneScenario(name, links, topoSeed)
	if err != nil {
		return nil, err
	}
	sc.TrueX = netsim.RoutineDelays(sc.Sys.Graph(), mc.RNG(seed, 0))
	return sc, nil
}

// backboneRounds synthesizes n rounds over a backbone scenario through
// the packet simulator; every fourth round carries delay spikes.
func backboneRounds(sc *e2e.Scenario, seed int64, n int) ([]round, error) {
	sys := sc.Sys
	out := make([]round, 0, n)
	for r := 0; r < n; r++ {
		y, err := netsim.RunDelay(netsim.Config{
			Graph: sys.Graph(), Paths: sys.Paths(), LinkDelays: sc.TrueX,
			Jitter: e2e.TrafficJitter, ProbesPerPath: e2e.TrafficProbes,
			RNG: mc.RNG(mc.Split(seed, seedBackbone+2), r),
		})
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", sc.Name, r, err)
		}
		kind := "clean"
		if r%4 == 3 {
			kind = "spike"
			rng := mc.RNG(mc.Split(seed, seedSpike), r)
			for s := 0; s < 3; s++ {
				y[sys.NumLinks()+rng.Intn(sys.NumPaths()-sys.NumLinks())] += spikeDelay
			}
		}
		out = append(out, round{Y: y, Kind: kind})
	}
	return out, nil
}

func (in *sessionInputs) permute(seed int64) {
	for c := 0; c < clients; c++ {
		in.Perm[c] = mc.RNG(seed, seedPerm+c).Perm(len(in.Pool))
	}
}

// expect computes every verdict client-side with the same tomo/detect
// code the server runs, on a system built independently of the server's.
func (in *sessionInputs) expect() error {
	var err error
	if in.want, err = verdicts(in.sys, in.Pool); err != nil {
		return err
	}
	for a := range in.Adds {
		av := &in.Adds[a]
		if av.Pool == nil {
			continue
		}
		wide, _, err := in.sys.AddPath(av.path)
		if err != nil {
			return fmt.Errorf("client-side add path: %w", err)
		}
		if av.want, err = verdicts(wide, av.Pool); err != nil {
			return err
		}
	}
	return nil
}

// verdicts runs the Eq. 23 check client-side. Dense systems solve each
// round through the normal-equations factor rather than the memoized
// operator the server applies: the answers agree to rounding, and the
// oracle skips the O(L²·P) operator build that would dominate input
// generation at 1k links.
func verdicts(sys *tomo.System, pool []round) ([]verdict, error) {
	det, err := detect.New(sys, 0)
	if err != nil {
		return nil, err
	}
	out := make([]verdict, len(pool))
	if sys.Dense() {
		fac, err := sys.Factor()
		if err != nil {
			return nil, err
		}
		for i, r := range pool {
			xhat, err := fac.Solve(r.Y)
			if err != nil {
				return nil, fmt.Errorf("client-side solve: %w", err)
			}
			res, err := sys.Residual(xhat, r.Y)
			if err != nil {
				return nil, err
			}
			n := res.Norm1()
			out[i] = verdict{Detected: n > det.Alpha(), Norm: n, XHat: xhat}
		}
		return out, nil
	}
	for i, r := range pool {
		rep, err := det.Inspect(r.Y)
		if err != nil {
			return nil, fmt.Errorf("client-side inspect: %w", err)
		}
		out[i] = verdict{Detected: rep.Detected, Norm: rep.ResidualNorm, XHat: rep.XHat}
	}
	return out, nil
}

func (in *sessionInputs) hash() string {
	h := sha256.New()
	writeJSON(h, in.Shape)
	writeJSON(h, in.Topo)
	writeRounds(h, in.Pool)
	for _, av := range in.Adds {
		writeJSON(h, av.Walk)
		writeRounds(h, av.Pool)
	}
	for _, p := range in.Perm {
		writeJSON(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeJSON(h hash.Hash, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every hashed value is a plain data type
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

func writeRounds(h hash.Hash, rs []round) {
	var b [8]byte
	for _, r := range rs {
		h.Write([]byte(r.Kind))
		for _, v := range r.Y {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

// --- routed-oneshot inputs ------------------------------------------------

// The fleet shape routed-oneshot runs against.
const (
	fleetGroups   = 3
	fleetReplicas = 2
)

// routedTopo is one topology the routed workload registers or reads.
type routedTopo struct {
	Req  serve.TopologyRequest
	Pool []round
	// Group is the replication group the ring places the digest on.
	Group int

	sys  *tomo.System
	want []verdict
}

type opKind uint8

const (
	opEstimate opKind = iota
	opInspect
	opRegister
	opEvict
)

func (k opKind) String() string {
	return [...]string{"estimate", "inspect", "register", "evict"}[k]
}

// op is one scheduled routed request.
type op struct {
	Kind opKind
	// Name is the topology read, registered or evicted.
	Name string
	// Topo supplies the registered body (register) and the expected
	// answers (reads, and the read-back probe after a register).
	Topo int
	// Rounds are pool indices (reads; one index for the probe).
	Rounds []int
}

// routedInputs is the routed workload's topologies and op schedule.
type routedInputs struct {
	// Topos holds the preregistered topologies first (Initial of them),
	// then the fresh-digest pool writes draw from.
	Topos   []*routedTopo
	Initial int

	seed int64
}

// Routed op mix, in percent of scheduled ops.
const (
	writePct = 2
	batchPct = 10
	batchLen = 4
)

func genRouted(seed int64) (*routedInputs, error) {
	in := &routedInputs{seed: seed}
	ring, err := cluster.NewRing(fleetGroups, 0)
	if err != nil {
		return nil, err
	}
	scs, err := e2e.BuildScenarios(e2e.AllKinds(), seed)
	if err != nil {
		return nil, err
	}
	fig := &routedTopo{sys: scs[0].Sys}
	if fig.Req, err = e2e.WireTopology("fig1", fig.sys, 0); err != nil {
		return nil, err
	}
	for k, sc := range scs {
		for r := 0; r < 4; r++ {
			y, err := netsim.RunDelay(netsim.Config{
				Graph: sc.Sys.Graph(), Paths: sc.Sys.Paths(), LinkDelays: sc.TrueX,
				Jitter: e2e.TrafficJitter, ProbesPerPath: e2e.TrafficProbes,
				RNG: mc.RNG(mc.Split(seed, seedRouted+k), r), Plan: sc.Plan,
			})
			if err != nil {
				return nil, err
			}
			fig.Pool = append(fig.Pool, round{Y: y, Kind: string(sc.Kind)})
		}
	}
	in.Topos = append(in.Topos, fig)
	// Small backbones, drawn until every group owns at least two
	// digests, so the read load reaches all three groups.
	perGroup := make([]int, fleetGroups)
	fig.Group = ring.Place(fig.sys.Digest())
	perGroup[fig.Group]++
	for i := 0; i < 64 && !covered(perGroup, 2); i++ {
		t, err := smallBackbone(fmt.Sprintf("bb-%d", len(in.Topos)-1), 60+20*(i%5), mc.Split(topoSeed, seedRouted+10+i), mc.Split(seed, seedRouted+10+i), 16)
		if err != nil {
			return nil, err
		}
		t.Group = ring.Place(t.sys.Digest())
		if perGroup[t.Group] >= 3 {
			continue
		}
		perGroup[t.Group]++
		in.Topos = append(in.Topos, t)
	}
	if !covered(perGroup, 2) {
		return nil, fmt.Errorf("routed inputs: groups not covered: %v", perGroup)
	}
	in.Initial = len(in.Topos)
	for i := 0; i < 64; i++ {
		t, err := smallBackbone(fmt.Sprintf("fresh-%d", i), 40+10*(i%4), mc.Split(topoSeed, seedRoutedFresh+i), mc.Split(seed, seedRoutedFresh+i), 4)
		if err != nil {
			return nil, err
		}
		t.Group = ring.Place(t.sys.Digest())
		in.Topos = append(in.Topos, t)
	}
	return in, nil
}

func covered(perGroup []int, n int) bool {
	for _, c := range perGroup {
		if c < n {
			return false
		}
	}
	return true
}

// smallBackbone builds a fixed backbone topology (topoSeed) carrying
// traffic drawn from the run's seed.
func smallBackbone(name string, links int, topoSeed, seed int64, rounds int) (*routedTopo, error) {
	sc, err := backboneScenario(name, links, topoSeed, seed)
	if err != nil {
		return nil, err
	}
	t := &routedTopo{sys: sc.Sys}
	if t.Req, err = e2e.WireTopology(name, sc.Sys, 0); err != nil {
		return nil, err
	}
	if t.Pool, err = backboneRounds(sc, seed, rounds); err != nil {
		return nil, err
	}
	return t, nil
}

func (in *routedInputs) expect() error {
	for _, t := range in.Topos {
		var err error
		if t.want, err = verdicts(t.sys, t.Pool); err != nil {
			return err
		}
	}
	return nil
}

// schedule generates the first n ops. Generation is sequential and
// deterministic in the seed; reads of a name written during the run
// start only readGrace ops after its registration (a probe by the
// writer reads it at once), and a name stops being read evictGrace ops
// before its eviction, so no scheduled read races a scheduled write of
// the same name from the other client.
func (in *routedInputs) schedule(n, readGrace, evictGrace int) []op {
	rng := mc.RNG(in.seed, seedSchedule)
	type live struct {
		name string
		topo int
		at   int
	}
	type pending struct {
		name string
		at   int
	}
	var (
		fresh   []live // registered during the run, readable or maturing
		retired []pending
		nextTop = in.Initial
		ops     = make([]op, 0, n)
	)
	readable := func(i int) (string, int) {
		var names []live
		for _, l := range fresh {
			if i-l.at >= readGrace {
				names = append(names, l)
			}
		}
		k := rng.Intn(in.Initial + len(names))
		if k < in.Initial {
			return in.Topos[k].Req.Name, k
		}
		return names[k-in.Initial].name, names[k-in.Initial].topo
	}
	for i := 0; i < n; i++ {
		p := rng.Intn(100)
		switch {
		case p < writePct && len(retired) > 0 && i-retired[0].at >= evictGrace:
			ops = append(ops, op{Kind: opEvict, Name: retired[0].name})
			retired = retired[1:]
		case p < writePct:
			// Half the registrations reuse a preregistered digest (a
			// solver-cache hit on the owning primary), half bring a
			// digest from the fresh pool.
			topo := rng.Intn(in.Initial)
			if rng.Intn(2) == 0 {
				topo = nextTop
				nextTop++
				if nextTop == len(in.Topos) {
					nextTop = in.Initial
				}
			}
			name := fmt.Sprintf("w-%d", i)
			ops = append(ops, op{Kind: opRegister, Name: name, Topo: topo,
				Rounds: []int{rng.Intn(len(in.Topos[topo].Pool))}})
			fresh = append(fresh, live{name: name, topo: topo, at: i})
			if len(fresh) > 6 {
				retired = append(retired, pending{name: fresh[0].name, at: i})
				fresh = fresh[1:]
			}
		default:
			name, topo := readable(i)
			kind := opEstimate
			if rng.Intn(2) == 0 {
				kind = opInspect
			}
			nr := 1
			if p < writePct+batchPct {
				nr = batchLen
			}
			o := op{Kind: kind, Name: name, Topo: topo}
			for r := 0; r < nr; r++ {
				o.Rounds = append(o.Rounds, rng.Intn(len(in.Topos[topo].Pool)))
			}
			ops = append(ops, o)
		}
	}
	return ops
}

// pinnedOps is how much of the schedule the input hash covers; the
// generator is sequential, so a prefix pins it.
const pinnedOps = 4096

func (in *routedInputs) hash(readGrace, evictGrace int) string {
	h := sha256.New()
	for _, t := range in.Topos {
		writeJSON(h, t.Req)
		writeRounds(h, t.Pool)
		writeJSON(h, t.Group)
	}
	for _, o := range in.schedule(pinnedOps, readGrace, evictGrace) {
		writeJSON(h, o)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// roundVectors gathers pool rounds by index.
func roundVectors(pool []round, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for i, k := range idx {
		out[i] = pool[k].Y
	}
	return out
}
