package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// routedRun drives the open-loop routed workload: op i is due at
// start + i/rate whatever happened to earlier ops, and both clients take
// the next due op as soon as they are free.
type routedRun struct {
	in    *routedInputs
	ops   []op
	base  string
	rate  float64
	slo   time.Duration
	tr    *recorder
	acked func(name string, at time.Time) // traced: visibility-lag probe
}

func (r *routedRun) run(ctx context.Context, start, deadline time.Time) []*workerStats {
	var next atomic.Int64
	stats := make([]*workerStats, clients)
	_ = runAll(clients, func(c int) error {
		st := newWorkerStats()
		stats[c] = st
		httpc := newHTTPClient()
		defer closeHTTPClient(httpc)
		for {
			i := int(next.Add(1) - 1)
			due := start.Add(time.Duration(float64(i) / r.rate * float64(time.Second)))
			if i >= len(r.ops) || !due.Before(deadline) {
				return nil
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			r.exec(ctx, httpc, i, due, st)
		}
	})
	return stats
}

// exec runs op i. Latency counts from the op's due time.
func (r *routedRun) exec(ctx context.Context, httpc *http.Client, i int, due time.Time, st *workerStats) {
	o := &r.ops[i]
	sent := time.Now()
	st.late = append(st.late, ms(lateness(due, sent)))
	reqID := fmt.Sprintf("o%d", i)
	switch o.Kind {
	case opEstimate, opInspect:
		ok, _ := r.read(ctx, httpc, o.Kind, o.Name, o.Topo, o.Rounds, reqID, due, false, st)
		lat := openLoopLatency(due, time.Now())
		st.read(lat, okRounds(ok, o.Rounds))
		if ok && lat <= r.slo {
			st.readsSLO++
		}
	case opRegister:
		t := r.in.Topos[o.Topo]
		body := t.Req
		body.Name = o.Name
		ok := r.write(ctx, httpc, "register", http.MethodPost, "/v1/topologies", body, http.StatusCreated, reqID, due, st)
		if !ok {
			return
		}
		if r.acked != nil {
			r.acked(o.Name, time.Now())
		}
		r.probe(ctx, httpc, o, reqID, st)
	case opEvict:
		r.write(ctx, httpc, "evict", http.MethodDelete, "/v1/topologies/"+o.Name, nil, http.StatusOK, reqID, due, st)
	}
}

func (r *routedRun) write(ctx context.Context, httpc *http.Client, class, method, path string, body any, want int, reqID string, due time.Time, st *workerStats) bool {
	cc := st.class(class)
	cc.Attempted++
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			cc.Failed++
			return false
		}
	}
	status, _, err := do(ctx, httpc, method, r.base+path, reqID, b)
	if err != nil || status != want {
		cc.Failed++
		return false
	}
	cc.Succeeded++
	st.write(openLoopLatency(due, time.Now()))
	return true
}

// probe reads a just-acknowledged registration back from the same
// client. A 404 is a stale read; the client then retries, as one that
// knows it wrote would. Each attempt is one request and so one read: a
// stale answer is a read that missed, the retry a read of its own.
func (r *routedRun) probe(ctx context.Context, httpc *http.Client, o *op, reqID string, st *workerStats) {
	cc := st.class("probe")
	cc.Attempted++
	st.probes++
	ok := false
	for attempt := 0; attempt < 100 && !ok; attempt++ {
		t0 := time.Now()
		var status int
		ok, status = r.read(ctx, httpc, opEstimate, o.Name, o.Topo, o.Rounds, fmt.Sprintf("%s-p%d", reqID, attempt), t0, true, st)
		lat := time.Since(t0)
		st.read(lat, okRounds(ok, o.Rounds))
		if ok && lat <= r.slo {
			st.readsSLO++
		}
		if !ok && attempt == 0 {
			st.stale++
			cc.Stale++
		}
		if !ok && status != http.StatusNotFound {
			break
		}
	}
	if !ok {
		cc.Failed++
		return
	}
	cc.Succeeded++
}

// read sends one estimate or inspect and verifies every answer against
// the client-side oracle. Reads that are not probes are tallied under
// their class; a probe's attempts are tallied by probe.
func (r *routedRun) read(ctx context.Context, httpc *http.Client, kind opKind, name string, topo int, rounds []int, reqID string, due time.Time, probe bool, st *workerStats) (bool, int) {
	cc := &classCount{}
	if !probe {
		cc = st.class(kind.String())
	}
	cc.Attempted++
	t := r.in.Topos[topo]
	rr := serve.RoundsRequest{Topology: name}
	ys := roundVectors(t.Pool, rounds)
	if len(ys) == 1 {
		rr.Y = ys[0]
	} else {
		rr.Rounds = ys
	}
	path := "/v1/estimate"
	if kind == opInspect {
		path = "/v1/inspect"
	}
	cr := clientRead{Req: reqID}
	if r.tr != nil {
		cr.Due, cr.Sent = r.tr.at(due), r.tr.now()
	}
	body, err := json.Marshal(rr)
	if err != nil {
		cc.Failed++
		return false, 0
	}
	if r.tr != nil {
		cr.Do = r.tr.now()
		cr.EncodeNs = cr.Do - cr.Sent
		cr.ReqBytes = len(body)
	}
	status, raw, err := do(ctx, httpc, http.MethodPost, r.base+path, reqID, body)
	if r.tr != nil {
		cr.Recv = r.tr.now()
		cr.RespBytes = len(raw)
	}
	if err != nil || status != http.StatusOK {
		cc.Failed++
		return false, status
	}
	okAll := true
	alarms := 0
	if kind == opEstimate {
		var er serve.EstimateResponse
		if err := json.Unmarshal(raw, &er); err != nil || len(er.Results) != len(rounds) {
			st.mismatch("%s %s: %d results, err %v", kind, name, len(er.Results), err)
			okAll = false
		} else {
			for k, res := range er.Results {
				if res.XHat == nil {
					st.mismatch("%s %s round %d: no x̂", kind, name, rounds[k])
					okAll = false
				} else if err := checkXHat(res.XHat, t.want[rounds[k]]); err != nil {
					st.mismatch("%s %s round %d: %v", kind, name, rounds[k], err)
					okAll = false
				}
			}
		}
	} else {
		var ir serve.InspectResponse
		if err := json.Unmarshal(raw, &ir); err != nil || len(ir.Reports) != len(rounds) {
			st.mismatch("%s %s: %d reports, err %v", kind, name, len(ir.Reports), err)
			okAll = false
		} else {
			for k, rep := range ir.Reports {
				if err := checkVerdict(rep.Detected, rep.ResidualNorm, nil, t.want[rounds[k]], ir.Alpha); err != nil {
					st.mismatch("%s %s round %d: %v", kind, name, rounds[k], err)
					okAll = false
				}
				if rep.Detected {
					alarms++
				}
			}
		}
	}
	if r.tr != nil {
		cr.End = r.tr.now()
		cr.DecodeNs = cr.End - cr.Recv
		st.routedReads = append(st.routedReads, cr)
	}
	if !okAll {
		cc.Failed++
		return false, status
	}
	cc.Succeeded++
	st.rounds += len(rounds)
	st.alarms += alarms
	return true, status
}

// okRounds is how many rounds a read answered correctly: all or none.
func okRounds(ok bool, rounds []int) int {
	if !ok {
		return 0
	}
	return len(rounds)
}
