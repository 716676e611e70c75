package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/serve"
)

// sessionClient is one closed-loop client of a session workload: it owns
// one connection and one session, and sends its next line only after
// the previous line's last verdict arrived.
type sessionClient struct {
	id     int
	in     *sessionInputs
	base   string
	httpc  *http.Client
	slo    time.Duration
	sid    string
	digest string
	alpha  float64

	next  int         // position in the client's pool order
	pair  int         // paths added so far
	added *addVariant // the path currently added, nil at the base set
	reqNo int
	buf   []byte
}

func newSessionClient(id int, in *sessionInputs, base string, slo time.Duration) *sessionClient {
	return &sessionClient{id: id, in: in, base: base, httpc: newHTTPClient(), slo: slo}
}

func (c *sessionClient) open(ctx context.Context) error {
	var sr serve.SessionResponse
	if err := doJSON(ctx, c.httpc, http.MethodPost, c.base+"/v1/sessions",
		serve.SessionRequest{Topology: c.in.Topo.Name}, &sr, http.StatusCreated); err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	c.sid, c.digest, c.alpha = sr.Session, sr.Digest, sr.Alpha
	return nil
}

func (c *sessionClient) close(ctx context.Context) error {
	defer closeHTTPClient(c.httpc)
	return doJSON(ctx, c.httpc, http.MethodDelete, c.base+"/v1/sessions/"+c.sid, nil, nil, http.StatusOK)
}

// cycle is one unit of the workload: ReqsPerCycle stream requests of
// LinesPerReq lines over the current path set, then a burst of path
// mutations alternating add and the remove that restores the digest.
// Nothing new starts after the deadline.
func (c *sessionClient) cycle(ctx context.Context, st *workerStats, deadline time.Time) error {
	for r := 0; r < c.in.Shape.ReqsPerCycle; r++ {
		if err := c.stream(ctx, st, deadline); err != nil {
			return err
		}
	}
	if c.id < c.in.Shape.Readers {
		return nil
	}
	p := c.in.sys.NumPaths()
	for b := 0; b < c.in.Shape.Burst && time.Now().Before(deadline); b++ {
		if c.added == nil {
			av := &c.in.Adds[(c.pair+c.id)%len(c.in.Adds)]
			c.pair++
			ok, err := c.mutate(ctx, st, "path-add", serve.SessionPathsRequest{Add: av.Walk}, p+1, "")
			if err != nil {
				return err
			}
			if ok {
				c.added = av
			}
			continue
		}
		ok, err := c.mutate(ctx, st, "path-remove", serve.SessionPathsRequest{Remove: &p}, p, c.digest)
		if err != nil {
			return err
		}
		if ok {
			c.added = nil
		}
	}
	return nil
}

// mutate sends one path mutation and reports whether it was applied. A
// shed or failed mutation is counted, not fatal: the session keeps its
// path set and the burst goes on.
func (c *sessionClient) mutate(ctx context.Context, st *workerStats, class string, req serve.SessionPathsRequest, wantPaths int, wantDigest string) (bool, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return false, err
	}
	cc := st.class(class)
	cc.Attempted++
	t0 := time.Now()
	status, raw, err := do(ctx, c.httpc, http.MethodPost, c.base+"/v1/sessions/"+c.sid+"/paths", c.nextID(), body)
	lat := time.Since(t0)
	var pr serve.SessionPathsResponse
	if err != nil || status != http.StatusOK || json.Unmarshal(raw, &pr) != nil {
		cc.Failed++
		return false, nil
	}
	if pr.NumPaths != wantPaths || (wantDigest != "" && pr.Digest != wantDigest) {
		st.mismatch("%s: %d paths digest %s, want %d paths digest %q", class, pr.NumPaths, pr.Digest, wantPaths, wantDigest)
		cc.Failed++
		return false, nil
	}
	cc.Succeeded++
	st.write(lat)
	return true, nil
}

func (c *sessionClient) nextID() string {
	c.reqNo++
	return fmt.Sprintf("c%d-%d", c.id, c.reqNo)
}

// stream runs one rounds request: the body is a pipe the client writes
// one line into at a time, reading that line's verdicts back before
// writing the next. While a path is added, rounds come from its
// widened pool.
func (c *sessionClient) stream(ctx context.Context, st *workerStats, deadline time.Time) error {
	pool, want := c.in.Pool, c.in.want
	if c.added != nil {
		pool, want = c.added.Pool, c.added.want
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sessions/"+c.sid+"/rounds", pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Request-Id", c.nextID())
	// A stream the server refuses or ends with an error line (a 429 shed,
	// a request timeout) costs one failed line; the client then opens the
	// next request, as a real one would.
	lines := st.class("line")
	opened := time.Now()
	resp, err := c.httpc.Do(req)
	if err != nil {
		pw.Close()
		lines.Attempted++
		lines.Failed++
		st.read(time.Since(opened), 0)
		return nil
	}
	defer resp.Body.Close()
	defer pw.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		lines.Attempted++
		lines.Failed++
		st.read(time.Since(opened), 0)
		return nil
	}
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	shape := c.in.Shape
	order := c.in.Perm[c.id]
	sent := 0
	batch := make([][]float64, shape.RoundsPerLine)
	idx := make([]int, shape.RoundsPerLine)
	slim := false
	for l := 0; l < shape.LinesPerReq && time.Now().Before(deadline); l++ {
		lines.Attempted++
		t0 := time.Now()
		for r := range batch {
			idx[r] = order[c.next%len(order)]
			c.next++
			batch[r] = pool[idx[r]].Y
		}
		var line serve.StreamRound
		if shape.Packed {
			packed, err := serve.PackRounds(batch)
			if err != nil {
				return err
			}
			line = serve.StreamRound{Packed: packed, XHat: &slim}
		} else {
			line = serve.StreamRound{Rounds: batch}
		}
		b, ok := serve.AppendStreamRound(c.buf[:0], &line)
		if !ok {
			return fmt.Errorf("line has non-finite values")
		}
		c.buf = b
		t1 := time.Now()
		if _, err := pw.Write(b); err != nil {
			lines.Failed++
			return fmt.Errorf("write line: %w", err)
		}
		var decNs int64
		var respBytes, okRounds int
		okLine := true
		for r := range batch {
			raw, err := br.ReadSlice('\n')
			if err != nil {
				lines.Failed++
				st.read(time.Since(t0), 0)
				return nil
			}
			respBytes += len(raw)
			d0 := time.Now()
			var v serve.StreamVerdict
			if !serve.ParseStreamVerdict(raw, &v) {
				var se serve.StreamError
				if json.Unmarshal(raw, &se) != nil || se.Error == "" {
					return fmt.Errorf("unexpected stream line: %s", strings.TrimSpace(string(raw)))
				}
				lines.Failed++
				st.read(time.Since(t0), 0)
				return nil
			}
			w := want[idx[r]]
			var xhat []float64
			if !shape.Packed {
				if v.XHat == nil {
					st.mismatch("verdict without x̂ on a full-x̂ line")
					okLine = false
					continue
				}
				xhat = v.XHat
			}
			if v.Round != sent+r {
				st.mismatch("verdict round %d, want %d", v.Round, sent+r)
				okLine = false
				continue
			}
			if err := checkVerdict(v.Detected, v.ResidualNorm, xhat, w, c.alpha); err != nil {
				st.mismatch("session %s round %d (%s): %v", c.sid, idx[r], pool[idx[r]].Kind, err)
				okLine = false
				continue
			}
			decNs += int64(time.Since(d0))
			okRounds++
			kind := pool[idx[r]].Kind
			st.kindRounds[kind]++
			if v.Detected {
				st.alarms++
				st.kindAlarms[kind]++
			}
		}
		lat := time.Since(t0)
		sent += len(batch)
		st.rounds += okRounds
		st.read(lat, okRounds)
		if !okLine {
			lines.Failed++
			continue
		}
		lines.Succeeded++
		if lat <= c.slo {
			st.readsSLO++
		}
		st.lines++
		st.lineNs += int64(lat)
		st.encNs += int64(t1.Sub(t0))
		st.decNs += decNs
		st.reqBytes += int64(len(b))
		st.respBytes += int64(respBytes)
	}
	if err := pw.Close(); err != nil {
		return err
	}
	raw, err := br.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("read stream summary: %w", err)
	}
	var sum serve.StreamSummary
	if err := json.Unmarshal(raw, &sum); err != nil || !sum.Done || sum.Rounds != sent {
		return fmt.Errorf("stream summary %s, want done with %d rounds", strings.TrimSpace(string(raw)), sent)
	}
	return nil
}

// registerTopology registers the workload's topology on the node.
func registerTopology(ctx context.Context, base string, req serve.TopologyRequest) error {
	c := newHTTPClient()
	defer closeHTTPClient(c)
	return doJSON(ctx, c, http.MethodPost, base+"/v1/topologies", req, nil, http.StatusCreated)
}
