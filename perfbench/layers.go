package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/forensics"
	"repro/internal/tomo"
)

// Route labels and mutation methods broken out per name.
var (
	serveRoutes     = []string{"estimate", "inspect", "topologies", "evict", "rounds", "session_paths"}
	mutationMethods = []string{"rank1-update", "rank1-downdate", "refactor", "sparse-append", "coverage-screen", "cold"}
)

// perLayer lists every per-layer metric with its unit, in report order.
// Every traced run prints all of them; a layer the workload does not
// reach reads 0.
func perLayer() [][2]string {
	m := [][2]string{
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.encode_us_per_line", "us"},
		{"loadgen.decode_us_per_line", "us"},
		{"wire.req_bytes_per_round", "bytes"},
		{"wire.resp_bytes_per_round", "bytes"},
		{"cluster.self_us", "us"},
		{"cluster.upstream_us", "us"},
		{"cluster.attempts_per_req", "count"},
		{"cluster.follower_read_frac", "frac"},
	}
	for _, r := range serveRoutes {
		m = append(m, [2]string{"serve.handler_us." + r, "us"})
	}
	for _, r := range serveRoutes {
		m = append(m, [2]string{"serve.self_us." + r, "us"})
	}
	m = append(m, [][2]string{
		{"serve.stream_self_us_per_round", "us"},
		{"serve.shed", "count"},
		{"registry.get_us", "us"},
		{"registry.register_ms", "ms"},
		{"cache.adopt_ms", "ms"},
		{"cache.hit_frac", "frac"},
		{"tomo.solve_us", "us"},
		{"tomo.solve_batch_us_per_round", "us"},
		{"tomo.add_path_ms", "ms"},
		{"tomo.remove_path_ms", "ms"},
	}...)
	for _, k := range mutationMethods {
		m = append(m, [2]string{"tomo.mutation_method_frac." + k, "frac"})
	}
	return append(m, [][2]string{
		{"la.factor_normal_ms", "ms"},
		{"la.factor_count", "count"},
		{"la.operator_ms", "ms"},
		{"la.operator_count", "count"},
		{"tomo.cgls_us", "us"},
		{"sparse.iterations_per_solve", "count"},
		{"detect.inspect_us", "us"},
		{"detect.alarm_frac", "frac"},
		{"forensics.ingest_us_per_round", "us"},
		{"forensics.epoch_resets", "count"},
		{"store.journal_us", "us"},
		{"store.append_us", "us"},
		{"store.fsync_ms", "ms"},
		{"replication.pull_ms", "ms"},
		{"replication.records_per_pull", "count"},
		{"replication.empty_pull_frac", "frac"},
		{"replication.visible_lag_ms", "ms"},
		{"replication.resyncs", "count"},
		{"obs.metrics_render_ms", "ms"},
		{"obs.trace_overhead_frac", "frac"},
		{"go.alloc_kb_per_round", "KB"},
		{"go.gc_cycles", "count"},
		{"go.gc_pause_ms", "ms"},
		{"failed_frac", "frac"},
		{"stale_read_frac", "frac"},
		{"trace.unattributed_frac", "frac"},
	}...)
}

// tracedRun measures the workload twice on fresh stacks, each for half
// the window: first untraced (the reference for the tracing overhead and
// for failed_frac and stale_read_frac), then with spans recorded at the
// layer seams and every node's metrics scraped around the window.
func tracedRun(ctx context.Context, out io.Writer, w workload, tmp string, window, slo time.Duration, name string, seed int64, build string) (*result, error) {
	half := window / 2
	plain, err := w.boot(ctx, filepath.Join(tmp, "plain"), nil, slo)
	if err != nil {
		return nil, err
	}
	ref, err := measure(ctx, plain, half, nil)
	if cerr := plain.close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := ref.check(out, w); err != nil {
		return nil, err
	}

	tr := newRecorder()
	rd, err := w.boot(ctx, filepath.Join(tmp, "traced"), tr, slo)
	if err != nil {
		return nil, err
	}
	defer rd.close(ctx)
	s := rd.stack()
	epochs0 := epochs(s)
	pre, err := s.scrape()
	if err != nil {
		return nil, err
	}
	var lags *lagWatcher
	if r, ok := rd.(*routedReady); ok {
		lags = newLagWatcher(s)
		r.run.acked = lags.acked
	}
	tr.on.Store(true)
	m, err := measure(ctx, rd, half, tr)
	tr.on.Store(false)
	var lag []float64
	if lags != nil {
		lag = lags.stop()
	}
	if err != nil {
		return nil, err
	}
	post, err := s.scrape()
	if err != nil {
		return nil, err
	}
	if err := m.check(out, w); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(build, fmt.Sprintf("trace-%s-seed%d.ndjson", name, seed))); err != nil {
		return nil, err
	}
	l := &layerCalc{
		w: w, m: m, ref: ref, spans: tr.snapshot(), pre: pre, post: post, lag: lag,
		epochResets: epochs(s) - epochs0, renderMs: renderMs(s),
	}
	vals, table := l.compute()
	fmt.Fprintf(out, "self time per read (%s, traced window %v):\n", name, half)
	total := 0.0
	for _, row := range table {
		total += row.us
	}
	for _, row := range table {
		fmt.Fprintf(out, "  %-44s %10.2f us %6.1f%%\n", row.name, row.us, 100*row.us/total)
	}
	fmt.Fprintf(out, "  %-44s %10.2f us (client-observed read time %.2f us)\n", "sum", total, l.clientReadUs)
	ms := map[string]metric{}
	for _, nu := range perLayer() {
		ms[nu[0]] = metric{vals[nu[0]], nu[1]}
	}
	return m.result(ms), nil
}

// row is one line of the self-time table.
type row struct {
	name string
	us   float64
}

// layerCalc joins the traced window's spans, client records and metric
// scrapes into per-layer numbers.
type layerCalc struct {
	w            workload
	m, ref       *measurement
	spans        []span
	pre, post    []promScrape
	lag          []float64
	epochResets  int
	renderMs     float64
	clientReadUs float64
}

const stageFamily = "tomographyd_stage_latency_seconds"

// stage is one pipeline stage's total seconds and count over the window,
// summed over every node.
func (l *layerCalc) stage(name string) (sum, count float64) {
	return histDelta(l.pre, l.post, stageFamily, "stage", name)
}

func (l *layerCalc) counter(name string) float64 { return delta(l.pre, l.post, name) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (l *layerCalc) compute() (map[string]float64, []row) {
	v := map[string]float64{}
	st := l.m.st
	rounds := float64(st.rounds)

	// Spans by kind, joined by request ID where they carry one.
	handlers := map[string][]span{}
	handlerByReq := map[string][]span{}
	upstreamByReq := map[string][]span{}
	routerByReq := map[string]span{}
	var journal, pulls, upstream []span
	for _, s := range l.spans {
		switch s.Name {
		case "serve.handler":
			handlers[s.Route] = append(handlers[s.Route], s)
			handlerByReq[s.Req] = append(handlerByReq[s.Req], s)
		case "cluster.upstream":
			upstream = append(upstream, s)
			upstreamByReq[s.Req] = append(upstreamByReq[s.Req], s)
		case "cluster.router":
			routerByReq[s.Req] = s
		case "store.journal":
			journal = append(journal, s)
		case "replication.pull":
			pulls = append(pulls, s)
		}
	}
	sumDur := func(ss []span) float64 {
		t := 0.0
		for _, s := range ss {
			t += float64(s.dur())
		}
		return t
	}
	meanUs := func(ss []span) float64 { return div(sumDur(ss), float64(len(ss))) / 1e3 }

	// loadgen and wire.
	if late, err := percentile(st.late, 0.99); err == nil {
		v["loadgen.late_p99_ms"] = late
	}
	lines := float64(st.lines)
	var encNs, decNs, reqB, respB float64
	if len(st.routedReads) > 0 {
		for _, cr := range st.routedReads {
			encNs += float64(cr.EncodeNs)
			decNs += float64(cr.DecodeNs)
			reqB += float64(cr.ReqBytes)
			respB += float64(cr.RespBytes)
		}
		lines = float64(len(st.routedReads))
	} else {
		encNs, decNs, reqB, respB = float64(st.encNs), float64(st.decNs), float64(st.reqBytes), float64(st.respBytes)
	}
	v["loadgen.encode_us_per_line"] = div(encNs, lines) / 1e3
	v["loadgen.decode_us_per_line"] = div(decNs, lines) / 1e3
	v["wire.req_bytes_per_round"] = div(reqB, rounds)
	v["wire.resp_bytes_per_round"] = div(respB, rounds)

	// cluster.
	routerReqs, follower, readAttempts := 0, 0, 0
	clusterSelf := 0.0
	for req, r := range routerByReq {
		clusterSelf += float64(selfTime(r, upstreamByReq[req]))
		routerReqs++
	}
	for _, u := range upstream {
		if u.Route == "estimate" || u.Route == "inspect" {
			readAttempts++
			if u.Follower {
				follower++
			}
		}
	}
	v["cluster.self_us"] = div(clusterSelf, float64(routerReqs)) / 1e3
	v["cluster.upstream_us"] = meanUs(upstream)
	v["cluster.attempts_per_req"] = div(float64(len(upstream)), float64(routerReqs))
	v["cluster.follower_read_frac"] = div(float64(follower), float64(readAttempts))

	// Stage sums (seconds) and counts over the window.
	regGet, regGetN := l.stage("registry.get")
	solve, solveN := l.stage("tomo.solve")
	batch, _ := l.stage("tomo.solve_batch")
	insp, inspN := l.stage("detect.inspect")
	reg, regN := l.stage("registry.register")
	adopt, adoptN := l.stage("cache.adopt")
	add, addN := l.stage("tomo.add_path")
	rem, remN := l.stage("tomo.remove_path")
	fac, facN := l.stage("la.factor_normal")
	op, opN := l.stage("la.operator_materialize")
	cgls, cglsN := l.stage("tomo.cgls")
	iters, itersN := histDelta(l.pre, l.post, "tomographyd_solver_iterations", "", "")
	regGetMean := div(regGet, regGetN)
	solveMean := div(solve, solveN)
	estRounds := l.counter("tomographyd_estimate_rounds_total")
	inspRounds := l.counter("tomographyd_inspect_rounds_total")
	sessRounds := l.counter("tomographyd_session_rounds_total")
	journalEvict, journalReg := 0.0, 0.0
	for _, j := range journal {
		if j.Route == "evict" {
			journalEvict += float64(j.dur())
		} else {
			journalReg += float64(j.dur())
		}
	}
	forensicsUs := l.forensicsUs()
	v["forensics.ingest_us_per_round"] = forensicsUs

	// serve: handler time per route, and its self time once the stages
	// below it are taken out (seconds → µs via 1e6, ns → µs via 1e3).
	for _, r := range serveRoutes {
		v["serve.handler_us."+r] = meanUs(handlers[r])
	}
	nEst, nInsp := float64(len(handlers["estimate"])), float64(len(handlers["inspect"]))
	selfUs := map[string]float64{
		"estimate":      sumDur(handlers["estimate"])/1e3 - 1e6*(regGetMean*nEst+solveMean*estRounds),
		"inspect":       sumDur(handlers["inspect"])/1e3 - 1e6*(regGetMean*nInsp+insp),
		"topologies":    sumDur(handlers["topologies"])/1e3 - 1e6*reg,
		"evict":         (sumDur(handlers["evict"]) - journalEvict) / 1e3,
		"session_paths": sumDur(handlers["session_paths"])/1e3 - 1e6*(add+rem),
	}
	active, srvLines := 0.0, 0.0
	for _, h := range handlers["rounds"] {
		active += float64(h.Active)
		srvLines += float64(h.Lines)
	}
	streamSelfUs := active/1e3 - 1e6*batch - forensicsUs*sessRounds
	selfUs["rounds"] = streamSelfUs
	for r, total := range selfUs {
		v["serve.self_us."+r] = div(total, float64(len(handlers[r])))
	}
	v["serve.self_us.rounds"] = div(streamSelfUs, srvLines)
	v["serve.stream_self_us_per_round"] = div(active/1e3-1e6*batch, sessRounds)
	v["serve.shed"] = l.counter("tomographyd_requests_rejected_total") + l.counter("tomographyd_requests_busy_total")
	v["registry.get_us"] = 1e6 * regGetMean
	v["registry.register_ms"] = 1e3 * div(reg, regN)
	v["cache.adopt_ms"] = 1e3 * div(adopt, adoptN)
	hits, misses := l.counter("tomographyd_solver_cache_hits_total"), l.counter("tomographyd_solver_cache_misses_total")
	v["cache.hit_frac"] = div(hits, hits+misses)

	// tomo, la, sparse, detect.
	v["tomo.solve_us"] = 1e6 * solveMean
	v["tomo.solve_batch_us_per_round"] = 1e6 * div(batch, sessRounds)
	v["tomo.add_path_ms"] = 1e3 * div(add, addN)
	v["tomo.remove_path_ms"] = 1e3 * div(rem, remN)
	muts := 0.0
	for _, k := range mutationMethods {
		muts += l.counter(series("tomographyd_path_mutations_total", "method", k))
	}
	for _, k := range mutationMethods {
		v["tomo.mutation_method_frac."+k] = div(l.counter(series("tomographyd_path_mutations_total", "method", k)), muts)
	}
	v["la.factor_normal_ms"] = 1e3 * div(fac, facN)
	v["la.factor_count"] = facN
	v["la.operator_ms"] = 1e3 * div(op, opN)
	v["la.operator_count"] = opN
	// Batched rounds run CGLS inside tomo.solve_batch without a span of
	// their own; every CGLS solve reports its iterations, so time per
	// solve is the CGLS time over that count. No workload batches dense
	// and sparse systems together, so where CGLS ran, the batch time is
	// CGLS time.
	if itersN > cglsN {
		cgls += batch
	}
	v["tomo.cgls_us"] = 1e6 * div(cgls, itersN)
	v["sparse.iterations_per_solve"] = div(iters, itersN)
	v["detect.inspect_us"] = 1e6 * div(insp, inspN)
	v["detect.alarm_frac"] = div(float64(st.alarms), rounds)
	v["forensics.epoch_resets"] = float64(l.epochResets)

	// store and replication.
	v["store.journal_us"] = meanUs(journal)
	app, appN := histDelta(l.pre, l.post, "store_wal_append_seconds", "", "")
	fs, fsN := histDelta(l.pre, l.post, "store_wal_fsync_seconds", "", "")
	v["store.append_us"] = 1e6 * div(app, appN)
	v["store.fsync_ms"] = 1e3 * div(fs, fsN)
	records, empty := 0, 0
	for _, p := range pulls {
		records += p.N
		if p.N == 0 {
			empty++
		}
	}
	v["replication.pull_ms"] = meanUs(pulls) / 1e3
	v["replication.records_per_pull"] = div(float64(records), float64(len(pulls)))
	v["replication.empty_pull_frac"] = div(float64(empty), float64(len(pulls)))
	v["replication.visible_lag_ms"] = median(l.lag)
	v["replication.resyncs"] = l.counter("store_replication_resyncs_total")

	// obs and the Go runtime.
	v["obs.metrics_render_ms"] = l.renderMs
	v["obs.trace_overhead_frac"] = 1 - div(l.m.roundsPerS(), l.ref.roundsPerS())
	v["go.alloc_kb_per_round"] = div(float64(l.m.memAfter.TotalAlloc-l.m.memBefore.TotalAlloc)/1024, rounds)
	v["go.gc_cycles"] = float64(l.m.memAfter.NumGC - l.m.memBefore.NumGC)
	v["go.gc_pause_ms"] = float64(l.m.memAfter.PauseTotalNs-l.m.memBefore.PauseTotalNs) / 1e6
	v["failed_frac"] = l.ref.failedFrac()
	v["stale_read_frac"] = l.ref.staleFrac()

	// The self-time table: every row is per read, and the rows add up to
	// the client-observed read time by construction; the transport rows
	// are the stated unattributed remainder.
	var table []row
	var unattributed float64
	if len(st.routedReads) > 0 {
		var n, lat, queue, enc, dec, c2r, cself, r2n, handler float64
		for _, cr := range st.routedReads {
			r, ok := routerByReq[cr.Req]
			if !ok {
				continue
			}
			n++
			lat += float64(cr.End - cr.Due)
			queue += float64(cr.Sent - cr.Due)
			enc += float64(cr.EncodeNs)
			dec += float64(cr.DecodeNs)
			c2r += float64(cr.Recv-cr.Do) - float64(r.dur())
			ups := upstreamByReq[cr.Req]
			cself += float64(selfTime(r, ups))
			hs := handlerByReq[cr.Req]
			r2n += sumDur(ups) - sumDur(hs)
			handler += sumDur(hs)
		}
		per := func(ns float64) float64 { return div(ns, n) / 1e3 }
		// Stage time of the joined reads, apportioned from the window's
		// stage sums by each route's share of requests and rounds.
		share := div(n, nEst+nInsp)
		regGetUs := 1e6 * regGetMean * (nEst + nInsp) * share
		solveUs := 1e6 * solve * share
		forUs := forensicsUs * inspRounds * share
		inspSelfUs := (1e6*insp - 1e6*solveMean*inspRounds) * share
		inspSelfUs -= forUs
		serveSelf := handler/1e3 - regGetUs - solveUs - inspSelfUs - forUs
		table = []row{
			{"loadgen.queue (due → send)", per(queue)},
			{"loadgen.encode (encoding/json)", per(enc)},
			{"transport client↔router (unattributed)", per(c2r)},
			{"cluster.self (router minus upstream)", per(cself)},
			{"transport router↔node (unattributed)", per(r2n)},
			{"serve.self (handler minus stages)", div(serveSelf, n)},
			{"registry.get", div(regGetUs, n)},
			{"tomo.solve", div(solveUs, n)},
			{"detect.inspect (self)", div(inspSelfUs, n)},
			{"forensics.ingest (replayed)", div(forUs, n)},
			{"loadgen.decode+verify", per(dec)},
		}
		l.clientReadUs = per(lat)
		unattributed = per(c2r) + per(r2n)
	} else {
		n := lines
		per := func(us float64) float64 { return div(us, n) }
		transport := float64(st.lineNs-st.encNs-st.decNs)/1e3 - active/1e3
		table = []row{
			{"loadgen.encode (codec)", per(encNs / 1e3)},
			{"transport client↔node (unattributed)", per(transport)},
			{"serve.stream (self)", per(streamSelfUs)},
			{"tomo.solve_batch", per(1e6 * batch)},
			{"forensics.ingest (replayed)", per(forensicsUs * sessRounds)},
			{"loadgen.decode+verify", per(decNs / 1e3)},
		}
		l.clientReadUs = per(float64(st.lineNs) / 1e3)
		unattributed = per(transport)
		if srvLines != lines {
			table = append(table, row{fmt.Sprintf("(server saw %.0f lines, client %.0f)", srvLines, lines), 0})
		}
	}
	v["trace.unattributed_frac"] = div(unattributed, l.clientReadUs)
	return v, table
}

// forensicsUs replays the workload's rounds through a fresh observatory
// via the public Table.Bind/Observatory.Ingest and returns µs per round.
func (l *layerCalc) forensicsUs() float64 {
	sys, pool := replayInputs(l.w)
	if sys == nil {
		return 0
	}
	var rounds []forensics.Round
	for i, r := range pool {
		xhat, err := sys.Estimate(r.Y)
		if err != nil {
			return 0
		}
		res, err := sys.Residual(xhat, r.Y)
		if err != nil {
			return 0
		}
		n := res.Norm1()
		rounds = append(rounds, forensics.Round{Req: "replay", Seq: i, Detected: n > detect.DefaultAlpha, Norm: n, Residual: res})
	}
	tbl := forensics.NewTable(forensics.Config{})
	o := tbl.Bind("replay", sys.Digest(), sys.CSR(), detect.DefaultAlpha)
	const reps = 4000
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		o.Ingest(rounds[i%len(rounds)])
	}
	return float64(time.Since(t0).Nanoseconds()) / reps / 1e3
}

// replayInputs picks the system and rounds whose ingestion cost stands
// for the workload: the session topology, or routed Fig. 1.
func replayInputs(w workload) (*tomo.System, []round) {
	switch w := w.(type) {
	case *sessionWorkload:
		return w.in.sys, w.in.Pool
	case *routedWorkload:
		return w.in.Topos[0].sys, w.in.Topos[0].Pool
	}
	return nil, nil
}

// epochs sums the forensic observatory epochs of every topology on
// every node; a path mutation that changes a session digest bumps one.
func epochs(s *stack) int {
	n := 0
	for _, nd := range s.allNodes() {
		for _, name := range nd.srv.Registry().Names() {
			if o, ok := nd.srv.Forensics().Get(name); ok {
				n += o.Epoch()
			}
		}
	}
	return n
}

// renderMs is the median time of five /metrics renders on the first node.
func renderMs(s *stack) float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		var b strings.Builder
		t0 := time.Now()
		s.nodes[0][0].srv.Metrics().WritePrometheus(&b)
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}

// lagWatcher measures, for every acknowledged registration, the time
// until every follower of the owning group serves the name.
type lagWatcher struct {
	s    *stack
	in   chan ackEvent
	done chan []float64
	once sync.Once
}

type ackEvent struct {
	name string
	at   time.Time
}

func newLagWatcher(s *stack) *lagWatcher {
	w := &lagWatcher{s: s, in: make(chan ackEvent, 1024), done: make(chan []float64)}
	go w.loop()
	return w
}

// acked is called by the routed client after each register ack; the
// buffer covers a whole window's registrations, so the send never
// blocks the client.
func (w *lagWatcher) acked(name string, at time.Time) {
	select {
	case w.in <- ackEvent{name, at}:
	default:
	}
}

func (w *lagWatcher) loop() {
	pending := map[string]time.Time{}
	var lags []float64
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case ev, ok := <-w.in:
			if !ok {
				sort.Float64s(lags)
				w.done <- lags
				return
			}
			pending[ev.name] = ev.at
		case <-t.C:
			for name, at := range pending {
				if w.visible(name) {
					lags = append(lags, ms(time.Since(at)))
					delete(pending, name)
				}
			}
		}
	}
}

// visible reports whether every follower holding a replica of the
// name's group serves it (and at least one follower does).
func (w *lagWatcher) visible(name string) bool {
	for _, row := range w.s.nodes {
		if _, err := row[0].srv.Registry().Get(name); err != nil {
			continue
		}
		for _, f := range row[1:] {
			if _, err := f.srv.Registry().Get(name); err != nil {
				return false
			}
		}
		return true
	}
	return false
}

func (w *lagWatcher) stop() []float64 {
	var lags []float64
	w.once.Do(func() {
		close(w.in)
		lags = <-w.done
	})
	return lags
}
