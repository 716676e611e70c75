package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/store"
)

// node is one tomographyd shard booted the way cmd/tomographyd boots
// with -data-dir and -role: default serve.Config (forensics on, default
// workers), a WAL with fsync=interval, warm restore, then the role.
type node struct {
	name string
	srv  *serve.Server
	st   *store.Store
	hs   *http.Server
	url  string
	done chan struct{}
}

func bootNode(ctx context.Context, dir, name string, follower bool, tr *recorder) (*node, error) {
	srv := serve.New(serve.Config{})
	st, err := store.Open(ctx, dir, store.Options{
		Fsync: store.FsyncInterval,
		Metrics: store.NewMetrics(srv.Metrics().Registry(), func() float64 {
			return float64(store.DirSize(dir))
		}),
	})
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", name, err)
	}
	if _, err := srv.Registry().Restore(ctx, st.Recovered().Topologies); err != nil {
		st.Close()
		return nil, fmt.Errorf("node %s warm start: %w", name, err)
	}
	if follower {
		srv.EnableReplication(st, serve.RoleFollower)
	} else {
		srv.Registry().AttachStore(tr.journal(name, st))
		srv.EnableReplication(st, serve.RolePrimary)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	n := &node{
		name: name, srv: srv, st: st, url: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: tr.nodeHandler(name, srv.Handler()), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln)
	}()
	return n, nil
}

func (n *node) close() error {
	err := shutdown(n.hs)
	<-n.done
	return errors.Join(err, n.st.Close())
}

// shutdown stops an HTTP server once its connections are idle. The
// server counts a connection that was dialed but never carried a
// request as busy for its first 5 s, and the router's and tailers'
// transports leave such connections behind; once the stack's clients
// are done nothing is in flight, so those are closed outright.
func shutdown(hs *http.Server) error {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); errors.Is(err, context.DeadlineExceeded) {
		return hs.Close()
	} else if err != nil {
		return err
	}
	return nil
}

// stack is one booted system under test: a single node for the session
// workloads, or a routed fleet. Close stops every goroutine it started
// and waits for them.
type stack struct {
	nodes [][]*node // [group][replica], primary first
	rhs   *http.Server
	rdone chan struct{}
	url   string // where clients send requests
	dir   string

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// bootSingle boots one standalone-with-WAL node, as the session
// workloads use it.
func bootSingle(ctx context.Context, dir string, tr *recorder) (*stack, error) {
	n, err := bootNode(ctx, filepath.Join(dir, "n0"), "n0", false, tr)
	if err != nil {
		return nil, err
	}
	return &stack{nodes: [][]*node{{n}}, url: n.url, dir: dir, cancel: func() {}}, nil
}

// bootFleet boots groups × replicas nodes, a tailer per follower on its
// real poll loop (cluster.DefaultPollInterval, no AfterWrite stepping),
// and a router with its health prober, as cmd/tomorouter runs it.
func bootFleet(ctx context.Context, dir string, groups, replicas int, tr *recorder) (*stack, error) {
	rctx, cancel := context.WithCancel(context.Background())
	s := &stack{dir: dir, cancel: cancel}
	urls := make([][]string, groups)
	for g := 0; g < groups; g++ {
		var row []*node
		for i := 0; i < replicas; i++ {
			name := fmt.Sprintf("g%d/n%d", g, i)
			n, err := bootNode(ctx, filepath.Join(dir, fmt.Sprintf("g%d", g), fmt.Sprintf("n%d", i)), name, i > 0, tr)
			if err != nil {
				s.close()
				return nil, err
			}
			row = append(row, n)
			urls[g] = append(urls[g], n.url)
		}
		s.nodes = append(s.nodes, row)
	}
	rt, err := cluster.New(cluster.Config{Groups: urls, Client: tr.upstreamClient()})
	if err != nil {
		s.close()
		return nil, err
	}
	tr.watchRouter(rt)
	for g, row := range s.nodes {
		grp := rt.Groups()[g]
		for _, n := range row[1:] {
			t := &cluster.Tailer{
				Server: n.srv,
				Source: func() string { return grp.Primary().URL },
				HTTP:   tr.tailerClient(n.name),
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				t.Run(rctx)
			}()
		}
	}
	if err := rt.SyncPlacements(ctx); err != nil {
		s.close()
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		rt.RunProber(rctx, 0)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.rhs = &http.Server{Handler: tr.routerHandler(rt), ReadHeaderTimeout: 10 * time.Second}
	s.rdone = make(chan struct{})
	go func() {
		defer close(s.rdone)
		_ = s.rhs.Serve(ln)
	}()
	return s, nil
}

// caughtUp waits until every follower has journaled its primary's whole
// WAL and serves the same topologies (a tailer journals a record before
// it applies it to the registry).
func (s *stack) caughtUp(ctx context.Context) error {
	for {
		behind := false
		for _, row := range s.nodes {
			last, names := row[0].st.LastSeq(), strings.Join(row[0].srv.Registry().Names(), ",")
			for _, n := range row[1:] {
				if n.st.LastSeq() < last || strings.Join(n.srv.Registry().Names(), ",") != names {
					behind = true
				}
			}
		}
		if !behind {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("followers did not catch up: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (s *stack) allNodes() []*node {
	var out []*node
	for _, row := range s.nodes {
		out = append(out, row...)
	}
	return out
}

func (s *stack) close() error {
	s.cancel()
	s.wg.Wait()
	var errs []error
	if s.rhs != nil {
		errs = append(errs, shutdown(s.rhs))
		<-s.rdone
	}
	for _, n := range s.allNodes() {
		errs = append(errs, n.close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// scrape reads every node's /metrics exposition in process, in node order.
func (s *stack) scrape() ([]promScrape, error) {
	var out []promScrape
	for _, n := range s.allNodes() {
		var b strings.Builder
		n.srv.Metrics().WritePrometheus(&b)
		p, err := parseProm(b.String())
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", n.name, err)
		}
		out = append(out, p)
	}
	return out, nil
}
