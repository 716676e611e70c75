package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sliceLen cuts the window into slices: rounds and CPU time are counted
// over the whole slices inside the window, and the heap peak is the
// median of the per-slice peaks.
const sliceLen = time.Second

// measurement is one measured window.
type measurement struct {
	st                  *workerStats
	start               time.Time
	window              time.Duration
	samples             []sample
	memBefore, memAfter runtime.MemStats
}

// sample is one reading of process CPU time and in-use heap.
type sample struct {
	at   time.Time
	cpu  time.Duration
	heap uint64
}

// measure runs the ready stack's workload for the window, sampling
// process CPU time and the in-use heap every 10 ms.
func measure(ctx context.Context, rd ready, window time.Duration, tr *recorder) (*measurement, error) {
	m := &measurement{window: window}
	runtime.ReadMemStats(&m.memBefore)
	stop := make(chan struct{})
	samples := make(chan []sample)
	go sampleLoop(stop, samples)
	m.start = time.Now()
	stats, err := rd.window(ctx, m.start.Add(window), tr)
	close(stop)
	m.samples = <-samples
	runtime.ReadMemStats(&m.memAfter)
	if err != nil {
		return nil, err
	}
	m.st = newWorkerStats()
	for _, s := range stats {
		m.st.merge(s)
	}
	return m, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuse is HeapInuse: heap objects plus unused space in in-use spans.
func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func sampleLoop(stop <-chan struct{}, out chan<- []sample) {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	var got []sample
	read := func() { got = append(got, sample{time.Now(), cpuTime(), heapInuse(s)}) }
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	read()
	for {
		select {
		case <-stop:
			read()
			out <- got
			return
		case <-t.C:
			read()
		}
	}
}

// slice is one sliceLen of the window.
type slice struct {
	rounds int
	cpu    time.Duration
	heap   uint64
}

// slices cuts the window into whole sliceLen slices: rounds go to the
// slice their read completed in, CPU time is the
// difference of the samples nearest each slice's edges.
func (m *measurement) slices() []slice {
	n := int(m.window / sliceLen)
	out := make([]slice, n)
	t0 := m.start.UnixNano()
	for i, end := range m.st.ends {
		k := int((end - t0) / int64(sliceLen))
		if k < 0 || k >= n {
			continue
		}
		out[k].rounds += int(m.st.endRounds[i])
	}
	cpuAt := func(t time.Time) time.Duration {
		i := sort.Search(len(m.samples), func(i int) bool { return !m.samples[i].at.Before(t) })
		if i == len(m.samples) {
			i--
		}
		return m.samples[i].cpu
	}
	for k := range out {
		a := m.start.Add(time.Duration(k) * sliceLen)
		b := a.Add(sliceLen)
		out[k].cpu = cpuAt(b) - cpuAt(a)
		for _, s := range m.samples {
			if !s.at.Before(a) && s.at.Before(b) && s.heap > out[k].heap {
				out[k].heap = s.heap
			}
		}
	}
	return out
}

// totals sums rounds and CPU time over the window's whole slices: the
// work completed inside the window, whatever was still in flight at its
// end left out.
func (m *measurement) totals() (rounds int, cpu, span time.Duration) {
	sl := m.slices()
	for _, s := range sl {
		rounds += s.rounds
		cpu += s.cpu
	}
	return rounds, cpu, time.Duration(len(sl)) * sliceLen
}

// roundsPerS is the rounds answered correctly per second of the window.
func (m *measurement) roundsPerS() float64 {
	rounds, _, span := m.totals()
	return div(float64(rounds), span.Seconds())
}

func (m *measurement) endToEnd(setupS float64) (map[string]metric, error) {
	rounds, cpu, span := m.totals()
	if span == 0 {
		return nil, fmt.Errorf("window %v is shorter than one %v slice", m.window, sliceLen)
	}
	if rounds == 0 {
		return nil, errors.New("no round was answered correctly inside the window")
	}
	// The in-use heap peaks once per GC cycle; the median of the per-slice
	// peaks is the peak a typical second reaches.
	var heap []float64
	for _, s := range m.slices() {
		heap = append(heap, float64(s.heap)/(1<<20))
	}
	// Every chunk must leave ≥10 samples beyond its tail percentile.
	rp, err := chunkedPercentiles(m.st.reads, m.st.ends, 100*minTail, 0.5, 0.99)
	if err != nil {
		return nil, fmt.Errorf("reads: %w", err)
	}
	wp, err := chunkedPercentiles(m.st.writes, m.st.writeEnds, 10*minTail, 0.5, 0.9)
	if err != nil {
		return nil, fmt.Errorf("writes: %w", err)
	}
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"rounds_per_s":     {float64(rounds) / span.Seconds(), "1/s"},
		"read_p50_ms":      {rp[0], "ms"},
		"read_p99_ms":      {rp[1], "ms"},
		"write_p50_ms":     {wp[0], "ms"},
		"write_p90_ms":     {wp[1], "ms"},
		"slo_frac":         {float64(m.st.readsSLO) / float64(len(m.st.reads)), "frac"},
		"cpu_us_per_round": {float64(cpu.Microseconds()) / float64(rounds), "us"},
		"peak_heap_mb":     {median(heap), "MB"},
	}, nil
}

// check prints the per-class tallies and fails on any wrong verdict.
func (m *measurement) check(out io.Writer, w workload) error {
	names := make([]string, 0, len(m.st.classes))
	for k := range m.st.classes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		b, _ := json.Marshal(m.st.classes[k])
		fmt.Fprintf(out, "ops %-12s %s\n", k, b)
	}
	if m.st.mismatches > 0 {
		return fmt.Errorf("%d verdict mismatches; first: %s", m.st.mismatches, m.st.firstMismatch)
	}
	if err := w.checkTheorems(m.st); err != nil {
		return err
	}
	if m.st.rounds == 0 {
		return errors.New("no round was answered correctly")
	}
	return nil
}

func (m *measurement) attempted() (attempted, failed, stale int) {
	for _, c := range m.st.classes {
		attempted += c.Attempted
		failed += c.Failed
		stale += c.Stale
	}
	return attempted, failed, stale
}

// failedFrac counts every failed operation and every stale first answer
// to a read-after-write probe against the operations attempted.
func (m *measurement) failedFrac() float64 {
	a, f, s := m.attempted()
	return float64(f+s) / float64(a)
}

func (m *measurement) staleFrac() float64 {
	if m.st.probes == 0 {
		return 0
	}
	return float64(m.st.stale) / float64(m.st.probes)
}

func (m *measurement) result(ms map[string]metric) *result {
	a, f, _ := m.attempted()
	return &result{Correct: true, Attempted: a, Failed: f, Metrics: ms}
}
