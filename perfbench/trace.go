package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/store"
)

// recorder collects spans at the layer seams the benchmark can reach
// from outside the program: the router handler, the router's upstream
// transport, each node's handler, each primary's journal backend and
// each tailer's transport. A nil recorder installs nothing, so the
// timed runs measure the stack exactly as it ships.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	rt    *cluster.Router
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64           { return int64(time.Since(r.epoch)) }
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as NDJSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parentHeader carries, on traced upstream requests only, the name of
// the span that sent them, so a node's handler span records its parent.
const parentHeader = "X-Perfbench-Parent"

// nodeRoute names the serve route a request hits, as the server's own
// route labels do ("" for routes the benchmark does not break down).
func nodeRoute(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/v1/estimate":
		return "estimate"
	case req.Method == http.MethodPost && p == "/v1/inspect":
		return "inspect"
	case req.Method == http.MethodPost && p == "/v1/topologies":
		return "topologies"
	case req.Method == http.MethodDelete && strings.HasPrefix(p, "/v1/topologies/"):
		return "evict"
	case req.Method == http.MethodPost && strings.HasPrefix(p, "/v1/sessions/") && strings.HasSuffix(p, "/rounds"):
		return "rounds"
	case req.Method == http.MethodPost && strings.HasPrefix(p, "/v1/sessions/") && strings.HasSuffix(p, "/paths"):
		return "session_paths"
	}
	return ""
}

// nodeHandler times each API request a node serves. On a round stream
// it also sums, per line, the time from the line's arrival to the flush
// of its verdicts, so the waits for the client's next line are not
// counted as server time.
func (r *recorder) nodeHandler(name string, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		route := nodeRoute(req)
		if route == "" || !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		parent := req.Header.Get(parentHeader)
		if parent == "" {
			parent = "client"
		}
		s := span{Name: "serve.handler", Req: req.Header.Get("X-Request-Id"), Parent: parent, Node: name, Route: route, Start: r.now()}
		if route == "rounds" {
			lt := &lineTimer{r: r}
			req.Body = &timedBody{ReadCloser: req.Body, lt: lt}
			h.ServeHTTP(&timedWriter{ResponseWriter: w, lt: lt}, req)
			s.Active, s.Lines = lt.active, lt.lines
		} else {
			h.ServeHTTP(w, req)
		}
		s.End = r.now()
		r.add(s)
	})
}

// lineTimer is touched only by the handler goroutine of one stream.
type lineTimer struct {
	r       *recorder
	pending bool
	start   int64
	active  int64
	lines   int
}

type timedBody struct {
	io.ReadCloser
	lt *lineTimer
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && !b.lt.pending {
		b.lt.pending, b.lt.start = true, b.lt.r.now()
	}
	return n, err
}

type timedWriter struct {
	http.ResponseWriter
	lt *lineTimer
}

// Flush ends the current line: the server flushes once per input line.
func (w *timedWriter) Flush() {
	_ = http.NewResponseController(w.ResponseWriter).Flush()
	if w.lt.pending {
		w.lt.active += w.lt.r.now() - w.lt.start
		w.lt.lines++
		w.lt.pending = false
	}
}

// Unwrap lets http.ResponseController reach the connection (full duplex).
func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// journal wraps a primary's store backend.
func (r *recorder) journal(node string, b store.Backend) store.Backend {
	if r == nil {
		return b
	}
	return &timedJournal{b: b, r: r, node: node}
}

type timedJournal struct {
	b    store.Backend
	r    *recorder
	node string
}

func (j *timedJournal) AppendRegister(doc store.TopologyDoc) error {
	t0 := j.r.now()
	err := j.b.AppendRegister(doc)
	j.r.add(span{Name: "store.journal", Parent: "serve.handler", Node: j.node, Route: "register", Start: t0, End: j.r.now()})
	return err
}

func (j *timedJournal) AppendEvict(name string) error {
	t0 := j.r.now()
	err := j.b.AppendEvict(name)
	j.r.add(span{Name: "store.journal", Parent: "serve.handler", Node: j.node, Route: "evict", Start: t0, End: j.r.now()})
	return err
}

// routerHandler times every request the router serves.
func (r *recorder) routerHandler(rt *cluster.Router) http.Handler {
	if r == nil {
		return rt
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			rt.ServeHTTP(w, req)
			return
		}
		s := span{Name: "cluster.router", Req: req.Header.Get("X-Request-Id"), Parent: "client", Route: nodeRoute(req), Start: r.now()}
		rt.ServeHTTP(w, req)
		s.End = r.now()
		r.add(s)
	})
}

func (r *recorder) watchRouter(rt *cluster.Router) {
	if r != nil {
		r.rt = rt
	}
}

// upstreamClient is the router's Config.Client: one span per upstream
// attempt, from send until the router closes the relayed body.
func (r *recorder) upstreamClient() *http.Client {
	if r == nil {
		return nil
	}
	return &http.Client{Transport: &upstreamRT{r: r, base: http.DefaultTransport}}
}

type upstreamRT struct {
	r    *recorder
	base http.RoundTripper
}

func (u *upstreamRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !u.r.on.Load() {
		return u.base.RoundTrip(req)
	}
	s := span{Name: "cluster.upstream", Req: req.Header.Get("X-Request-Id"), Parent: "cluster.router",
		Route: nodeRoute(req), Start: u.r.now(), Follower: u.r.isFollower("http://" + req.URL.Host)}
	req = req.Clone(req.Context())
	req.Header.Set(parentHeader, s.Name)
	resp, err := u.base.RoundTrip(req)
	if err != nil {
		s.End = u.r.now()
		u.r.add(s)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, r: u.r, s: s}
	return resp, nil
}

// isFollower reports whether url is, right now, not its group's primary.
func (r *recorder) isFollower(url string) bool {
	if r.rt == nil {
		return false
	}
	for _, g := range r.rt.Groups() {
		for _, n := range g.Nodes() {
			if n.URL == url {
				return g.Primary() != n
			}
		}
	}
	return false
}

type spanBody struct {
	io.ReadCloser
	r    *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.r.now()
		b.r.add(b.s)
	})
	return err
}

// tailerClient is a follower tailer's HTTP client: one span per WAL
// pull, carrying how many records (or resync documents) it shipped.
func (r *recorder) tailerClient(node string) *http.Client {
	if r == nil {
		return nil
	}
	return &http.Client{Transport: &pullRT{r: r, node: node, base: http.DefaultTransport}}
}

type pullRT struct {
	r    *recorder
	node string
	base http.RoundTripper
}

func (p *pullRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !p.r.on.Load() {
		return p.base.RoundTrip(req)
	}
	s := span{Name: "replication.pull", Parent: "cluster.tailer", Node: p.node, Start: p.r.now()}
	resp, err := p.base.RoundTrip(req)
	if err != nil {
		s.End = p.r.now()
		p.r.add(s)
		return resp, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	var batch serve.ReplicationBatch
	if json.Unmarshal(raw, &batch) == nil {
		s.N = len(batch.Records) + len(batch.Docs)
	}
	s.End = p.r.now()
	p.r.add(s)
	return resp, nil
}
