// Command perfbench is tomographyd's serving benchmark. It boots the
// stack as it ships (serve nodes with forensics on and default workers,
// WALs with fsync=interval, tailers on real poll loops, a router with
// its prober), drives one workload against it from this process, checks
// every verdict against a client-side oracle, and prints the workload's
// metrics as one JSON line.
//
//	perfbench --workload stream-fig1 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload once untraced and once with spans recorded at the
// layer seams, and prints the per-layer metrics and a self-time table.
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

//go:embed spec.json
var specJSON []byte

// spec is the benchmark's fixed configuration: the pinned input hashes,
// the routed rate and the latency limits.
type spec struct {
	DefaultSeed int64 `json:"default_seed"`
	HoldoutSeed int64 `json:"holdout_seed"`
	Workloads   map[string]struct {
		InputSHA256 string  `json:"input_sha256"`
		ReadSLOms   float64 `json:"read_slo_ms"`
		RatePerS    float64 `json:"rate_per_s,omitempty"`
		// Setups is how many times a timed run boots the stack; setup_s
		// is the median.
		Setups int `json:"setups"`
	} `json:"workloads"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: stream-fig1, churn-1k, sparse-3k or routed-oneshot")
	seed := fs.Int64("seed", 0, "workload seed (0 = the spec's default seed)")
	seconds := fs.Float64("seconds", 10, "measured window length")
	trace := fs.Int("trace", 0, "1 = traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return fmt.Errorf("spec.json: %w", err)
	}
	if *seed == 0 {
		*seed = sp.DefaultSeed
	}
	ws, ok := sp.Workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("bad --seconds %v or --trace %d", *seconds, *trace)
	}
	window := time.Duration(*seconds * float64(time.Second))

	// Input pinning: the default seed's inputs must hash to the pinned
	// value on every run, whatever seed this run uses.
	pinned, err := genWorkload(*name, sp.DefaultSeed, ws.RatePerS, window)
	if err != nil {
		return fmt.Errorf("generate pinned inputs: %w", err)
	}
	if h := pinned.hash(); h != ws.InputSHA256 {
		return fmt.Errorf("%s inputs for default seed %d hash to %s, pinned %s: input generation drifted",
			*name, sp.DefaultSeed, h, ws.InputSHA256)
	}
	w := pinned
	if *seed != sp.DefaultSeed {
		if w, err = genWorkload(*name, *seed, ws.RatePerS, window); err != nil {
			return fmt.Errorf("generate inputs: %w", err)
		}
	}
	inputHash := w.hash()
	if err := w.expect(); err != nil {
		return fmt.Errorf("client-side oracle: %w", err)
	}

	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	tmp := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	ctx := context.Background()
	slo := time.Duration(ws.ReadSLOms * float64(time.Millisecond))

	src, err := sourceDigest()
	if err != nil {
		return fmt.Errorf("hash sources: %w", err)
	}
	env := map[string]any{
		"workload": *name, "seed": *seed, "holdout_seed": sp.HoldoutSeed,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"commit": commit(), "source_sha256": src, "fleet": w.fleet(), "fsync": "interval", "fsync_interval": "100ms",
		"poll_interval": "500ms", "run_seconds": *seconds, "clients": clients,
		"input_sha256": inputHash, "read_slo_ms": ws.ReadSLOms, "trace": *trace,
	}
	if ws.RatePerS > 0 {
		env["rate_per_s"] = ws.RatePerS
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", envLine)

	var res *result
	if *trace == 0 {
		res, err = timedRun(ctx, out, w, tmp, window, ws.Setups, slo)
	} else {
		res, err = tracedRun(ctx, out, w, tmp, window, slo, *name, *seed, build)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// timedRun sets the stack up `setups` times (reporting the median set-up
// time), then measures the last one for the window.
func timedRun(ctx context.Context, out io.Writer, w workload, tmp string, window time.Duration, setups int, slo time.Duration) (*result, error) {
	var setupS []float64
	var rd ready
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		r, err := w.boot(ctx, filepath.Join(tmp, fmt.Sprintf("setup-%d", i)), nil, slo)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			if err := r.close(ctx); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			continue
		}
		rd = r
	}
	m, err := measure(ctx, rd, window, nil)
	if cerr := rd.close(ctx); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := m.check(out, w); err != nil {
		return nil, err
	}
	e2e, err := m.endToEnd(median(setupS))
	if err != nil {
		return nil, err
	}
	return m.result(e2e), nil
}

// commit names the git commit of the checkout, read from .git without
// running git, or "unknown" when the checkout is not a repository.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest is a sha256 over the Go sources and module files the
// benchmark builds from, so a result names the code it measured even
// when the checkout carries no git metadata.
func sourceDigest() (string, error) {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "cmd", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" && filepath.Base(path) != "spec.json" {
				return nil
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
			h.Write(b)
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runAll runs fn for every client concurrently and joins their errors.
func runAll(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}
