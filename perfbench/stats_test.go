package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileTailRule(t *testing.T) {
	// 1000 samples: p99 is rank 990, leaving exactly 10 beyond it.
	v, err := percentile(seq(1000), 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	// 999 samples: rank ⌈989.01⌉ = 990 leaves only 9 beyond.
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 over 999 samples accepted with 9 samples beyond it")
	}
	// p90 needs 100 samples.
	if v, err := percentile(seq(100), 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Fatal("p90 over 99 samples accepted")
	}
	// The median has no tail rule.
	if v, err := percentile(seq(3), 0.5); err != nil || v != 2 {
		t.Fatalf("p50 of 1..3 = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

func TestChunkedPercentiles(t *testing.T) {
	// 3000 samples completing in order: three chunks of 1000, each
	// leaving exactly 10 samples beyond its p99. The middle chunk is
	// disturbed (values ×100); the median across chunks ignores it.
	n := 3000
	xs := make([]float64, n)
	ends := make([]int64, n)
	for i := range xs {
		xs[i] = float64(i%1000 + 1)
		if i >= 1000 && i < 2000 {
			xs[i] *= 100
		}
		ends[n-1-i] = int64(n - i) // ends ascend with i
	}
	got, err := chunkedPercentiles(xs, ends, 1000, 0.5, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 500 || got[1] != 990 {
		t.Fatalf("chunked p50, p99 = %v, want [500 990]", got)
	}
	// Chunks follow completion time, not slice order.
	rev := make([]int64, n)
	for i := range rev {
		rev[i] = int64(n - i)
	}
	if got, _ := chunkedPercentiles(xs, rev, 1000, 0.5); got[0] != 500 {
		t.Fatalf("reversed completion order p50 = %v, want 500", got)
	}
	if _, err := chunkedPercentiles(xs[:999], ends[:999], 1000, 0.99); err == nil {
		t.Fatal("999 samples accepted for a 1000-sample chunk")
	}
	// 2500 samples give two chunks of 1250; p99 of 1..1250 is 1238.
	two := make([]float64, 2500)
	for i := range two {
		two[i] = float64(i%1250 + 1)
	}
	if got, err := chunkedPercentiles(two, ends[:2500], 1000, 0.99); err != nil || got[0] != 1238 {
		t.Fatalf("two-chunk p99 = %v, %v; want 1238", got, err)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	due := t0.Add(10 * time.Millisecond)
	sent := t0.Add(35 * time.Millisecond) // the generator ran 25 ms late
	done := sent.Add(2 * time.Millisecond)
	if got := openLoopLatency(due, done); got != 27*time.Millisecond {
		t.Fatalf("latency = %v, want 27ms (2ms service + 25ms late)", got)
	}
	if got := lateness(due, sent); got != 25*time.Millisecond {
		t.Fatalf("lateness = %v, want 25ms", got)
	}
	if got := lateness(due, t0); got != 0 {
		t.Fatalf("early send lateness = %v, want 0", got)
	}
}

const scrapeA = `# HELP tomographyd_stage_latency_seconds Trace-span duration by pipeline stage.
# TYPE tomographyd_stage_latency_seconds histogram
tomographyd_stage_latency_seconds_bucket{stage="tomo.solve",le="0.001"} 3
tomographyd_stage_latency_seconds_bucket{stage="tomo.solve",le="+Inf"} 4
tomographyd_stage_latency_seconds_sum{stage="tomo.solve"} 0.5
tomographyd_stage_latency_seconds_count{stage="tomo.solve"} 4
store_wal_records_total 7
`

const scrapeB = `tomographyd_stage_latency_seconds_sum{stage="tomo.solve"} 2.25
tomographyd_stage_latency_seconds_count{stage="tomo.solve"} 10
store_wal_records_total 9
tomographyd_path_mutations_total{method="rank1-update"} 5
`

func TestPrometheusHistogramDelta(t *testing.T) {
	a, err := parseProm(scrapeA)
	if err != nil {
		t.Fatal(err)
	}
	if got := a[`tomographyd_stage_latency_seconds_bucket{stage="tomo.solve",le="+Inf"}`]; got != 4 {
		t.Fatalf("+Inf bucket = %v, want 4", got)
	}
	b, err := parseProm(scrapeB)
	if err != nil {
		t.Fatal(err)
	}
	// Two nodes: node 0 moved from A to B, node 1 from empty to B.
	pre := []promScrape{a, {}}
	post := []promScrape{b, b}
	sum, count := histDelta(pre, post, "tomographyd_stage_latency_seconds", "stage", "tomo.solve")
	if math.Abs(sum-(1.75+2.25)) > 1e-12 || count != 6+10 {
		t.Fatalf("histDelta = (%v, %v), want (4, 16)", sum, count)
	}
	if got := delta(pre, post, "store_wal_records_total"); got != 2+9 {
		t.Fatalf("counter delta = %v, want 11", got)
	}
	// A series that appears only after the first scrape counts from 0.
	if got := delta(pre, post, series("tomographyd_path_mutations_total", "method", "rank1-update")); got != 10 {
		t.Fatalf("new series delta = %v, want 10", got)
	}
	if _, err := parseProm("metric_without_value\n"); err == nil {
		t.Fatal("line without a value accepted")
	}
	if _, err := parseProm("m not-a-number\n"); err == nil {
		t.Fatal("non-numeric value accepted")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 110, End: 150}}, 60},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 180, End: 190}}, 80},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 140, End: 170}}, 40},
		{"nested child counts once", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"children clipped to parent", []span{{Start: 50, End: 120}, {Start: 190, End: 260}}, 70},
		{"child outside parent", []span{{Start: 300, End: 400}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}
