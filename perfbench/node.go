package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/mobility"
	"sybiltd/internal/platform"
	"sybiltd/internal/platform/shard"
	"sybiltd/internal/wal"
)

// The serving configuration mirrors the defaults of cmd/mcsplatform and
// cmd/mcsrouter, so the benchmark measures what those binaries serve.
var (
	nodeDurable = platform.DurableOptions{
		SnapshotEvery:  1024,
		CommitLinger:   2 * time.Millisecond,
		CommitMaxBatch: 64,
	}
	nodeLimits = platform.ServerLimits{
		MaxConcurrent:  64,
		MaxQueue:       128,
		QueueTimeout:   time.Second,
		RequestTimeout: 30 * time.Second,
	}
	routerLimits = platform.ServerLimits{
		MaxConcurrent:  128,
		MaxQueue:       256,
		QueueTimeout:   time.Second,
		RequestTimeout: 30 * time.Second,
	}
)

// genConns caps the load generator's client connections.
const genConns = 2

// listen opens a loopback listener on a free port.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// httpServer serves h on ln until closed.
type httpServer struct {
	srv  *http.Server
	done chan error
}

func serve(ln net.Listener, h http.Handler, rec *recorder) *httpServer {
	if rec != nil {
		h = &timedHandler{next: h, rec: rec}
	}
	s := &httpServer{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       60 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       120 * time.Second,
		},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s
}

func (s *httpServer) close() {
	_ = s.srv.Close() // drops open connections, watch streams included
	<-s.done
}

// nodeSpec describes one durable platform node.
type nodeSpec struct {
	dir   string
	tasks []mcs.Task
	// followers makes the node a semi-sync replica-group primary.
	followers []string
	// followerOf makes the node a follower of that primary.
	followerOf string
	// walName names the node's WAL spans ("wal" or "follower.wal").
	walName string
	// timeHandler installs the timing handler (the node the generator
	// talks to directly).
	timeHandler bool
}

// node is one durable platform node serving over loopback TCP, built the
// way cmd/mcsplatform builds it.
type node struct {
	store *platform.LocalStore
	dur   *platform.Durability
	repl  *platform.Replication
	api   *platform.Server
	http  *httpServer
	fs    *timedFS // nil in untraced runs
}

func startNode(ln net.Listener, spec nodeSpec, rec *recorder) (*node, error) {
	n := &node{}
	opts := nodeDurable
	if rec != nil {
		n.fs = &timedFS{FS: wal.OS(), rec: rec, name: spec.walName}
		opts.FS = n.fs
	}
	store, dur, _, err := platform.OpenDurable(spec.dir, spec.tasks, opts)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("open durable %s: %w", spec.dir, err)
	}
	n.store, n.dur = store, dur
	if len(spec.followers) > 0 || spec.followerOf != "" {
		ropts := platform.ReplicationOptions{
			Mode:       platform.AckSemiSync,
			Followers:  spec.followers,
			FollowerOf: spec.followerOf,
		}
		if rec != nil {
			ropts.NewClient = func(endpoint string) *platform.Client {
				tr := &timedTransport{base: http.DefaultTransport, rec: rec, name: "repl.ship", countFrames: true}
				return platform.NewClient(endpoint, platform.WithRetries(0),
					platform.WithHTTPClient(&http.Client{Timeout: 10 * time.Second, Transport: tr}))
			}
		}
		n.repl = platform.NewReplication(store, dur, ropts)
	}
	var served platform.Store = store
	if rec != nil {
		served = &timedLocal{timedStore: timedStore{Store: store, rec: rec, prefix: "store"}, local: store}
	}
	n.api = platform.NewServerWithOptions(served, platform.ServerOptions{
		Limits:       nodeLimits,
		Replication:  n.repl,
		DisableWatch: spec.followerOf != "",
	})
	if rec != nil {
		// Re-install the hub's feed behind the timing listener.
		served.SetSubmitListener(timedListener(rec, n.api.Hub().Feed))
	}
	var hrec *recorder
	if spec.timeHandler {
		hrec = rec
	}
	n.http = serve(ln, n.api, hrec)
	return n, nil
}

// walBytes is the bytes written through the node's timing FS so far (0 in
// untraced runs).
func (n *node) walBytes() int64 {
	if n.fs == nil {
		return 0
	}
	return n.fs.bytes.Load()
}

// close stops the node in cmd/mcsplatform's shutdown order: stop serving,
// close the stream hub, stop shipping, write the final snapshot.
func (n *node) close() error {
	n.http.close()
	n.api.Close()
	if n.repl != nil {
		n.repl.Close()
	}
	return n.dur.Close()
}

// router is the shard router over replica groups, built the way
// cmd/mcsrouter builds it, serving over loopback TCP.
type router struct {
	url    string
	poller *shard.FailoverPoller
	api    *platform.Server
	http   *httpServer
}

func startRouter(ctx context.Context, groups [][]string, rec *recorder) (*router, error) {
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	var configs []shard.GroupConfig
	for _, members := range groups {
		var gc shard.GroupConfig
		for _, e := range members {
			client := platform.NewClient(e,
				platform.WithHTTPClient(&http.Client{Timeout: 10 * time.Second}),
				platform.WithRetries(2),
				platform.WithBackoff(50*time.Millisecond, 0),
			)
			remote := platform.NewRemoteStore(client)
			var b platform.Store = remote
			if rec != nil {
				b = &timedBackend{timedStore: timedStore{Store: remote, rec: rec, prefix: "backend"}, remote: remote}
			}
			gc.Replicas = append(gc.Replicas, b)
			gc.Addrs = append(gc.Addrs, e)
		}
		configs = append(configs, gc)
	}
	st, err := shard.NewReplicated(ctx, configs, shard.Options{})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("router: %w", err)
	}
	r := &router{url: url}
	r.poller = st.StartFailover(shard.FailoverOptions{ProbeInterval: time.Second})
	var served platform.Store = st
	if rec != nil {
		served = &timedStore{Store: st, rec: rec, prefix: "shard"}
	}
	r.api = platform.NewServerWithOptions(served, platform.ServerOptions{Limits: routerLimits})
	r.http = serve(ln, r.api, rec)
	return r, nil
}

func (r *router) close() {
	r.poller.Stop()
	r.http.close()
	r.api.Close()
}

// newGenClient builds the load generator's client: one transport capped at
// genConns connections, timed when tracing.
func newGenClient(url string, rec *recorder) (*platform.Client, *http.Transport) {
	tr := &http.Transport{
		MaxConnsPerHost:     genConns,
		MaxIdleConnsPerHost: genConns,
		IdleConnTimeout:     90 * time.Second,
	}
	var rt http.RoundTripper = tr
	if rec != nil {
		rt = &timedTransport{base: tr, rec: rec, name: "client"}
	}
	c := platform.NewClient(url,
		platform.WithHTTPClient(&http.Client{Timeout: 60 * time.Second, Transport: rt}),
		platform.WithRetries(2),
		platform.WithBackoff(50*time.Millisecond, 0),
	)
	return c, tr
}

// layoutTasks publishes n tasks on a seeded POI map, as cmd/mcsplatform
// does.
func layoutTasks(n int, seed int64) []mcs.Task {
	rng := rand.New(rand.NewSource(seed))
	pois := mobility.LayoutPOIs(n, 400, 300, 30, rng)
	tasks := make([]mcs.Task, len(pois))
	for i, p := range pois {
		tasks[i] = mcs.Task{ID: i, Name: fmt.Sprintf("POI-%d", i+1), X: p.X, Y: p.Y}
	}
	return tasks
}
