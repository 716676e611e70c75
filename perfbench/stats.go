package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie strictly beyond a reported
// percentile: a p99 over fewer than 1000 samples is the maximum of a
// handful of values, not a percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1):
// the smallest sample with at least ⌈q·n⌉ samples at or below it. It
// fails when fewer than minTail samples lie beyond that rank, so a run
// too short for its tail percentile is an error, not a number.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; q > 0.5 && beyond < minTail {
		return 0, fmt.Errorf("p%g over %d samples leaves %d beyond it, need %d", q*100, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// maxChunks caps how many time-ordered chunks chunkedPercentiles splits
// a window's samples into.
const maxChunks = 7

// chunkedPercentiles splits the samples, in completion order, into as
// many equal chunks (at most maxChunks) as leave every chunk at least
// minN samples, takes each q-quantile per chunk, and returns the median
// across chunks for each q. A tail percentile then reflects the usual
// tail of the window rather than one disturbed stretch of it. Fewer than
// minN samples in all is an error.
func chunkedPercentiles(xs []float64, ends []int64, minN int, qs ...float64) ([]float64, error) {
	n := len(xs)
	if n < minN {
		return nil, fmt.Errorf("%d samples, need at least %d", n, minN)
	}
	k := n / minN
	if k > maxChunks {
		k = maxChunks
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ends[order[a]] < ends[order[b]] })
	per := make([][]float64, len(qs))
	for c := 0; c < k; c++ {
		chunk := make([]float64, 0, n/k+1)
		for _, i := range order[c*n/k : (c+1)*n/k] {
			chunk = append(chunk, xs[i])
		}
		for j, q := range qs {
			v, err := percentile(chunk, q)
			if err != nil {
				return nil, err
			}
			per[j] = append(per[j], v)
		}
	}
	out := make([]float64, len(qs))
	for j := range qs {
		out[j] = median(per[j])
	}
	return out, nil
}

// median is the nearest-rank median, without the tail rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// openLoopLatency is the latency of one open-loop request: from the
// moment it was due to be sent until it completed. Measuring from the
// send time instead would hide the wait a stall imposes on every
// request queued behind it (coordinated omission).
func openLoopLatency(due, done time.Time) time.Duration {
	return done.Sub(due)
}

// lateness is how far behind schedule the generator sent a request.
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// promScrape is one Prometheus text exposition, keyed by the full series
// name including its label set exactly as rendered
// (`tomographyd_stage_latency_seconds_sum{stage="tomo.solve"}`).
type promScrape map[string]float64

// parseProm parses the text exposition format: comment and blank lines
// are skipped, every other line is `series value`.
func parseProm(text string) (promScrape, error) {
	out := promScrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("exposition line %d: no value: %q", ln, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", ln, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// series renders a metric name with one label, as the exposition does.
func series(name, label, value string) string {
	if label == "" {
		return name
	}
	return fmt.Sprintf("%s{%s=%q}", name, label, value)
}

// delta is post−pre for one series, summed over paired scrapes (one
// pair per node). A series absent from a scrape counts as zero.
func delta(pre, post []promScrape, key string) float64 {
	d := 0.0
	for i := range post {
		d += post[i][key]
		if i < len(pre) {
			d -= pre[i][key]
		}
	}
	return d
}

// histDelta is the change in a histogram series' _sum and _count
// between scrapes: the total observed (seconds, for latency families)
// and how many observations, over the interval between the scrapes.
func histDelta(pre, post []promScrape, name, label, value string) (sum, count float64) {
	sum = delta(pre, post, series(name+"_sum", label, value))
	count = delta(pre, post, series(name+"_count", label, value))
	return sum, count
}

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch; Req joins the spans of one
// request across layers.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Parent string `json:"parent,omitempty"`
	Node   string `json:"node,omitempty"`
	Route  string `json:"route,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Active is the server-busy share of a streamed request: the summed
	// time from each line's arrival to its verdict flush, excluding the
	// waits for the client's next line.
	Active int64 `json:"active,omitempty"`
	// Lines counts the lines Active was summed over.
	Lines int `json:"lines,omitempty"`
	// N is a count the boundary reports (records per replication pull).
	N int `json:"n,omitempty"`
	// Follower marks an upstream attempt served by a follower replica.
	Follower bool `json:"follower,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is a span's duration minus the part of its interval covered
// by its children. Children are clipped to the parent and overlapping
// children are counted once, so concurrent children (a retry racing a
// slow attempt) cannot drive self time negative.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - covered
}
