package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/serve"
)

// workload is one traffic mix: its generated inputs, how to boot and
// warm the stack for it, and the invariants its verdicts must satisfy.
type workload interface {
	hash() string
	expect() error
	fleet() string
	// boot starts the stack, registers the workload's topologies, waits
	// for followers and warms up: everything up to the first timed op.
	boot(ctx context.Context, dir string, tr *recorder, slo time.Duration) (ready, error)
	checkTheorems(st *workerStats) error
}

// ready is a booted, warmed stack for one workload.
type ready interface {
	window(ctx context.Context, deadline time.Time, tr *recorder) ([]*workerStats, error)
	stack() *stack
	close(ctx context.Context) error
}

// genWorkload generates a workload's inputs; window sizes the routed
// op schedule.
func genWorkload(name string, seed int64, rate float64, window time.Duration) (workload, error) {
	switch name {
	case "stream-fig1":
		in, err := genFig1(seed)
		return &sessionWorkload{in: in, theorem3: true}, err
	case "churn-1k":
		in, err := genBackbone("churn-1k", 1000, seed,
			sessionShape{LinesPerReq: 10, ReqsPerCycle: 5, RoundsPerLine: 2, Packed: true, Burst: 49, Readers: 1})
		return &sessionWorkload{in: in}, err
	case "sparse-3k":
		in, err := genBackbone("sparse-3k", 3000, seed,
			sessionShape{LinesPerReq: 12, ReqsPerCycle: 1, RoundsPerLine: 2, Packed: true, Burst: 1})
		return &sessionWorkload{in: in}, err
	case "routed-oneshot":
		in, err := genRouted(seed)
		return &routedWorkload{in: in, rate: rate, ops: int(rate*window.Seconds()) + 1}, err
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- session workloads ------------------------------------------------------

type sessionWorkload struct {
	in *sessionInputs
	// theorem3 marks the Fig. 1 campaigns, whose verdicts Theorem 3 fixes.
	theorem3 bool
}

func (w *sessionWorkload) hash() string  { return w.in.hash() }
func (w *sessionWorkload) expect() error { return w.in.expect() }
func (w *sessionWorkload) fleet() string { return "1 node, 2 sessions" }

type sessionReady struct {
	s  *stack
	cl []*sessionClient
}

func (w *sessionWorkload) boot(ctx context.Context, dir string, tr *recorder, slo time.Duration) (ready, error) {
	s, err := bootSingle(ctx, dir, tr)
	if err != nil {
		return nil, err
	}
	if err := registerTopology(ctx, s.url, w.in.Topo); err != nil {
		s.close()
		return nil, err
	}
	rd := &sessionReady{s: s}
	for c := 0; c < clients; c++ {
		rd.cl = append(rd.cl, newSessionClient(c, w.in, s.url, slo))
	}
	// Warm-up: each client opens its session and streams one request.
	warm := make([]*workerStats, clients)
	err = runAll(clients, func(c int) error {
		warm[c] = newWorkerStats()
		if err := rd.cl[c].open(ctx); err != nil {
			return err
		}
		return rd.cl[c].stream(ctx, warm[c], time.Now().Add(time.Hour))
	})
	for _, st := range warm {
		if err == nil && st.mismatches > 0 {
			err = fmt.Errorf("warm-up: %d verdict mismatches; first: %s", st.mismatches, st.firstMismatch)
		}
	}
	if err != nil {
		rd.close(ctx)
		return nil, err
	}
	return rd, nil
}

func (rd *sessionReady) window(ctx context.Context, deadline time.Time, tr *recorder) ([]*workerStats, error) {
	stats := make([]*workerStats, clients)
	err := runAll(clients, func(c int) error {
		stats[c] = newWorkerStats()
		for time.Now().Before(deadline) {
			if err := rd.cl[c].cycle(ctx, stats[c], deadline); err != nil {
				return err
			}
		}
		return nil
	})
	return stats, err
}

func (rd *sessionReady) stack() *stack { return rd.s }

func (rd *sessionReady) close(ctx context.Context) error {
	var errs []error
	for _, c := range rd.cl {
		if c.sid != "" {
			errs = append(errs, c.close(ctx))
		}
	}
	return errors.Join(append(errs, rd.s.close())...)
}

// checkTheorems asserts Theorem 3 on the Fig. 1 campaigns: a stealthy
// perfect-cut attack raises no alarm, a chosen-victim attack on an
// imperfect cut always does.
func (w *sessionWorkload) checkTheorems(st *workerStats) error {
	if !w.theorem3 {
		return nil
	}
	if n := st.kindRounds["stealthy"]; n == 0 || st.kindAlarms["stealthy"] != 0 {
		return fmt.Errorf("Theorem 3: stealthy perfect-cut rounds %d raised %d alarms, want 0", n, st.kindAlarms["stealthy"])
	}
	if n := st.kindRounds["chosen-victim"]; n == 0 || st.kindAlarms["chosen-victim"] != n {
		return fmt.Errorf("Theorem 3: chosen-victim rounds %d raised %d alarms, want all", n, st.kindAlarms["chosen-victim"])
	}
	return nil
}

// --- routed-oneshot ---------------------------------------------------------

// Schedule graces, in seconds: a name written during the run is read by
// the other client only after readGraceS (longer than the tailers' poll
// interval) and stops being read evictGraceS before its eviction.
const (
	readGraceS  = 1.5
	evictGraceS = 0.5
)

type routedWorkload struct {
	in   *routedInputs
	rate float64
	ops  int // scheduled ops a window needs
}

func (w *routedWorkload) graces() (int, int) {
	return int(math.Ceil(readGraceS * w.rate)), int(math.Ceil(evictGraceS * w.rate))
}

func (w *routedWorkload) hash() string {
	rg, eg := w.graces()
	return w.in.hash(rg, eg)
}
func (w *routedWorkload) expect() error { return w.in.expect() }
func (w *routedWorkload) fleet() string {
	return fmt.Sprintf("%d groups x %d replicas behind a router", fleetGroups, fleetReplicas)
}
func (w *routedWorkload) checkTheorems(*workerStats) error { return nil }

type routedReady struct {
	s   *stack
	run *routedRun
}

func (w *routedWorkload) boot(ctx context.Context, dir string, tr *recorder, slo time.Duration) (ready, error) {
	s, err := bootFleet(ctx, dir, fleetGroups, fleetReplicas, tr)
	if err != nil {
		return nil, err
	}
	rg, eg := w.graces()
	rd := &routedReady{s: s, run: &routedRun{
		in: w.in, ops: w.in.schedule(w.ops, rg, eg), base: s.url, rate: w.rate, slo: slo, tr: tr,
	}}
	c := newHTTPClient()
	defer closeHTTPClient(c)
	for _, t := range w.in.Topos[:w.in.Initial] {
		var tresp serve.TopologyResponse
		if err := doJSON(ctx, c, http.MethodPost, s.url+"/v1/topologies", t.Req, &tresp, http.StatusCreated); err != nil {
			s.close()
			return nil, err
		}
		if tresp.Digest != t.sys.Digest() {
			s.close()
			return nil, fmt.Errorf("%s registered with digest %s, client built %s", t.Req.Name, tresp.Digest, t.sys.Digest())
		}
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	err = s.caughtUp(wctx)
	cancel()
	if err != nil {
		s.close()
		return nil, err
	}
	// Warm-up: every preregistered topology read through the router
	// twice per route, so both replicas of its group answer each route.
	warm := newWorkerStats()
	for i := range w.in.Topos[:w.in.Initial] {
		for _, k := range []opKind{opEstimate, opEstimate, opInspect, opInspect} {
			ok, status := rd.run.read(ctx, c, k, w.in.Topos[i].Req.Name, i, []int{0}, "warm", time.Now(), false, warm)
			if !ok {
				s.close()
				return nil, fmt.Errorf("warm-up %s %s: status %d %s", k, w.in.Topos[i].Req.Name, status, warm.firstMismatch)
			}
		}
	}
	return rd, nil
}

func (rd *routedReady) window(ctx context.Context, deadline time.Time, tr *recorder) ([]*workerStats, error) {
	start := time.Now()
	if need := int(deadline.Sub(start).Seconds()*rd.run.rate) + 1; need > len(rd.run.ops) {
		return nil, fmt.Errorf("window needs %d scheduled ops, have %d", need, len(rd.run.ops))
	}
	return rd.run.run(ctx, start, deadline), nil
}

func (rd *routedReady) stack() *stack { return rd.s }

func (rd *routedReady) close(context.Context) error { return rd.s.close() }
