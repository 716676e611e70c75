package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"
)

// Verdict tolerances. x̂ and the residual norm come back through JSON
// (lossless for float64) from the same tomo code, but the server may
// batch or warm-start an iterative solve differently than the
// client-side oracle, so equality is to a fixed relative tolerance.
const (
	normTol = 1e-6
	xhatTol = 1e-6
)

// newHTTPClient is one load-generating client's connection: a private
// transport holding at most one connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func closeHTTPClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}

// do sends one request with a JSON (or pre-encoded) body and returns the
// status and the whole response body.
func do(ctx context.Context, c *http.Client, method, url, reqID string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// doJSON marshals body, sends it and decodes a wantStatus reply into out.
func doJSON(ctx context.Context, c *http.Client, method, url string, body, out any, wantStatus int) error {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return err
		}
	}
	status, raw, err := do(ctx, c, method, url, "", b)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if status != wantStatus {
		return fmt.Errorf("%s %s: status %d: %s", method, url, status, bytes.TrimSpace(raw))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func near(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkVerdict compares one server verdict with the client-side oracle.
// A residual norm within tolerance of α has no checkable alarm bit, so
// only the norm is compared there.
func checkVerdict(detected bool, norm float64, xhat []float64, want verdict, alpha float64) error {
	if !near(norm, want.Norm, normTol) {
		return fmt.Errorf("residual norm %v, want %v", norm, want.Norm)
	}
	if detected != want.Detected && !near(want.Norm, alpha, normTol) {
		return fmt.Errorf("detected=%v, want %v (norm %v, α %v)", detected, want.Detected, want.Norm, alpha)
	}
	return checkXHat(xhat, want)
}

func checkXHat(xhat []float64, want verdict) error {
	if xhat == nil {
		return nil
	}
	if len(xhat) != len(want.XHat) {
		return fmt.Errorf("x̂ has %d links, want %d", len(xhat), len(want.XHat))
	}
	for i := range xhat {
		if !near(xhat[i], want.XHat[i], xhatTol) {
			return fmt.Errorf("x̂[%d] = %v, want %v", i, xhat[i], want.XHat[i])
		}
	}
	return nil
}

// classCount is the outcome tally of one operation class.
type classCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Stale     int `json:"stale"`
}

// workerStats is one client goroutine's record of the timed window;
// workers never share one, and they are merged after the window.
type workerStats struct {
	reads, writes []float64 // ms
	// ends and endRounds are, per read, when it completed (Unix ns) and
	// how many rounds it answered correctly: the timeline slices are cut
	// from.
	ends          []int64
	endRounds     []int32
	writeEnds     []int64
	readsSLO      int // reads answered correctly within the limit
	rounds        int // rounds with a verified verdict
	alarms        int // of those, rounds the server flagged
	classes       map[string]*classCount
	mismatches    int
	firstMismatch string
	// kindRounds/kindAlarms tally verdicts by campaign kind (Theorem 3).
	kindRounds, kindAlarms map[string]int
	probes, stale          int
	late                   []float64 // ms, open loop only

	// Traced runs only.
	encNs, decNs        int64
	reqBytes, respBytes int64
	lines               int
	lineNs              int64 // client-observed time of all lines
	routedReads         []clientRead
}

// clientRead is one routed read as the client saw it, in recorder time.
type clientRead struct {
	Req                      string
	Due, Sent, Do, Recv, End int64
	EncodeNs, DecodeNs       int64
	ReqBytes, RespBytes      int
}

func newWorkerStats() *workerStats {
	return &workerStats{classes: map[string]*classCount{}, kindRounds: map[string]int{}, kindAlarms: map[string]int{}}
}

// read records one completed read: its latency, and now, the rounds
// it answered correctly.
func (w *workerStats) read(lat time.Duration, rounds int) {
	w.reads = append(w.reads, ms(lat))
	w.ends = append(w.ends, time.Now().UnixNano())
	w.endRounds = append(w.endRounds, int32(rounds))
}

// write records one acknowledged write's latency and completion time.
func (w *workerStats) write(lat time.Duration) {
	w.writes = append(w.writes, ms(lat))
	w.writeEnds = append(w.writeEnds, time.Now().UnixNano())
}

func (w *workerStats) class(name string) *classCount {
	c := w.classes[name]
	if c == nil {
		c = &classCount{}
		w.classes[name] = c
	}
	return c
}

func (w *workerStats) mismatch(format string, args ...any) {
	w.mismatches++
	if w.firstMismatch == "" {
		w.firstMismatch = fmt.Sprintf(format, args...)
	}
}

func (w *workerStats) merge(o *workerStats) {
	w.reads = append(w.reads, o.reads...)
	w.ends = append(w.ends, o.ends...)
	w.endRounds = append(w.endRounds, o.endRounds...)
	w.writeEnds = append(w.writeEnds, o.writeEnds...)
	w.writes = append(w.writes, o.writes...)
	w.readsSLO += o.readsSLO
	w.rounds += o.rounds
	w.alarms += o.alarms
	for k, c := range o.classes {
		m := w.class(k)
		m.Attempted += c.Attempted
		m.Succeeded += c.Succeeded
		m.Failed += c.Failed
		m.Stale += c.Stale
	}
	if w.firstMismatch == "" {
		w.firstMismatch = o.firstMismatch
	}
	w.mismatches += o.mismatches
	for k, v := range o.kindRounds {
		w.kindRounds[k] += v
	}
	for k, v := range o.kindAlarms {
		w.kindAlarms[k] += v
	}
	w.probes += o.probes
	w.stale += o.stale
	w.late = append(w.late, o.late...)
	w.encNs += o.encNs
	w.decNs += o.decNs
	w.reqBytes += o.reqBytes
	w.respBytes += o.respBytes
	w.lines += o.lines
	w.lineNs += o.lineNs
	w.routedReads = append(w.routedReads, o.routedReads...)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
