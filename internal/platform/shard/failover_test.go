package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sybiltd/internal/obs"
	"sybiltd/internal/platform"
)

// replProc is one replica process stand-in for failover tests: a durable
// store with its replication manager behind a real listener, killable
// without losing its data dir and restartable on the same address.
type replProc struct {
	t       *testing.T
	dir     string
	store   *platform.LocalStore
	d       *platform.Durability
	repl    *platform.Replication
	reg     *obs.Registry
	api     *platform.Server
	srv     *httptest.Server
	client  *platform.Client
	stopped bool
}

// startReplProc boots one replica over dir. An empty addr takes a fresh
// listener; a non-empty addr rebinds a previous replica's address, which
// is what a supervisor restarting the process looks like to the router.
func startReplProc(t *testing.T, dir, addr string, ropts platform.ReplicationOptions) *replProc {
	t.Helper()
	store, d, _, err := platform.OpenDurable(dir, testTasks(3), platform.DurableOptions{})
	if err != nil {
		t.Fatalf("open replica dir %s: %v", dir, err)
	}
	reg := obs.NewRegistry()
	if ropts.Registry == nil {
		ropts.Registry = reg
	}
	repl := platform.NewReplication(store, d, ropts)
	api := platform.NewServerWithOptions(store, platform.ServerOptions{
		Registry:     reg,
		Replication:  repl,
		DisableWatch: ropts.FollowerOf != "",
	})
	var srv *httptest.Server
	if addr == "" {
		srv = httptest.NewServer(api)
	} else {
		srv = httptest.NewUnstartedServer(api)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		srv.Listener.Close()
		srv.Listener = l
		srv.Start()
	}
	n := &replProc{
		t: t, dir: dir, store: store, d: d, repl: repl, reg: reg,
		api: api, srv: srv, client: platform.NewClient(srv.URL, platform.WithRetries(0)),
	}
	t.Cleanup(n.stop)
	return n
}

// stop shuts the replica down cleanly. Idempotent.
func (n *replProc) stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.srv.Close()
	n.api.Close()
	n.repl.Close()
	_ = n.d.Close()
}

// kill simulates the process dying: the listener stops answering and the
// WAL closes with no final snapshot, so only fsynced-before-ack records
// survive in the data dir.
func (n *replProc) kill() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.srv.CloseClientConnections()
	n.srv.Close()
	n.api.Close()
	n.repl.Close()
	if err := n.d.Abort(); err != nil {
		n.t.Errorf("abort replica durability: %v", err)
	}
}

// addrOf strips the scheme so the address can be rebound.
func (n *replProc) addrOf() string {
	return n.srv.Listener.Addr().String()
}

// replGroupProcs is one replica group's processes, initial primary first.
type replGroupProcs struct {
	procs []*replProc
}

// newReplicatedFleet boots groups x replicasPer durable replicas (each
// group's replica 0 the initial primary, shipping to the rest) and returns
// the processes plus the GroupConfigs a router needs to front them.
func newReplicatedFleet(t *testing.T, root string, groups, replicasPer int, mode platform.AckMode, ship time.Duration) ([]*replGroupProcs, []GroupConfig) {
	t.Helper()
	fleet := make([]*replGroupProcs, groups)
	cfgs := make([]GroupConfig, groups)
	for gi := 0; gi < groups; gi++ {
		g := &replGroupProcs{procs: make([]*replProc, replicasPer)}
		followers := make([]string, 0, replicasPer-1)
		for ri := 1; ri < replicasPer; ri++ {
			g.procs[ri] = startReplProc(t, filepath.Join(root, fmt.Sprintf("g%d-r%d", gi, ri)), "", platform.ReplicationOptions{
				FollowerOf:   "http://primary.pending.invalid",
				ShipInterval: ship,
			})
			followers = append(followers, g.procs[ri].srv.URL)
		}
		g.procs[0] = startReplProc(t, filepath.Join(root, fmt.Sprintf("g%d-r0", gi)), "", platform.ReplicationOptions{
			Mode:         mode,
			Followers:    followers,
			ShipInterval: ship,
		})
		fleet[gi] = g
		gc := GroupConfig{}
		for _, p := range g.procs {
			gc.Replicas = append(gc.Replicas, platform.NewRemoteStore(platform.NewClient(p.srv.URL, platform.WithRetries(0))))
			gc.Addrs = append(gc.Addrs, p.srv.URL)
		}
		cfgs[gi] = gc
	}
	return fleet, cfgs
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func counterOf(reg *obs.Registry, name string) int64 {
	return reg.Snapshot().Counters[name]
}

// TestFailoverPromotesOnPrimaryDeath is the router-side failover path end
// to end: the poller notices a dead primary, promotes its follower at a
// higher epoch, the router's writes to that group start landing again
// without any reconfiguration, /readyz names every replica with its role
// and probe age, and the returned old primary is demoted by the poller
// and caught up by the new primary's shipping.
func TestFailoverPromotesOnPrimaryDeath(t *testing.T) {
	root := t.TempDir()
	fleet, cfgs := newReplicatedFleet(t, root, 2, 2, platform.AckAsync, 10*time.Millisecond)
	store, err := NewReplicated(context.Background(), cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	poller := store.StartFailover(FailoverOptions{
		ProbeInterval: 20 * time.Millisecond,
		DeadInterval:  120 * time.Millisecond,
		Registry:      reg,
	})
	t.Cleanup(poller.Stop)
	routerAPI := platform.NewServerWithOptions(store, platform.ServerOptions{})
	router := httptest.NewServer(routerAPI)
	t.Cleanup(router.Close)
	t.Cleanup(routerAPI.Close)

	ctx := context.Background()
	client := platform.NewClient(router.URL, platform.WithRetries(0))
	owners := accountsPerShard(store)
	for gi, acct := range owners {
		if err := client.Submit(ctx, platform.SubmissionRequest{Account: acct, Task: 0, Value: float64(10 + gi), Time: at(gi)}); err != nil {
			t.Fatalf("seed submit shard %d: %v", gi, err)
		}
	}

	// Let group 0's follower converge before the kill so promotion loses
	// nothing even in async mode.
	const gi = 0
	pst, err := fleet[gi].procs[0].client.ReplStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "group-0 follower catch-up", func() bool {
		st, err := fleet[gi].procs[1].client.ReplStatus(ctx)
		return err == nil && st.DurableSeq == pst.DurableSeq
	})

	oldAddr := fleet[gi].procs[0].addrOf()
	fleet[gi].procs[0].kill()

	// The poller must flip the group's primary on its own.
	waitUntil(t, 5*time.Second, "poller promotion of group-0 follower", func() bool {
		return store.Primary(gi) == 1
	})
	if n := counterOf(reg, "repl.failovers"); n < 1 {
		t.Errorf("repl.failovers = %d after a promotion, want >= 1", n)
	}
	st, err := fleet[gi].procs[1].client.ReplStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != platform.RolePrimary || st.Epoch < 1 {
		t.Errorf("promoted follower reports role=%q epoch=%d, want primary at epoch >= 1", st.Role, st.Epoch)
	}

	// Writes owned by group 0 land again through the router, untouched.
	if err := client.Submit(ctx, platform.SubmissionRequest{Account: owners[gi], Task: 1, Value: 42, Time: at(7)}); err != nil {
		t.Fatalf("submit after promotion: %v", err)
	}
	// The other group never noticed.
	if err := client.Submit(ctx, platform.SubmissionRequest{Account: owners[1], Task: 1, Value: 43, Time: at(7)}); err != nil {
		t.Fatalf("submit to healthy group during failover: %v", err)
	}

	// /readyz names every replica with role and probe age; the dead old
	// primary is flagged, the promoted follower reads as primary.
	rz, err := client.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rz.Shards) != 4 {
		t.Fatalf("readyz lists %d replicas, want 4: %+v", len(rz.Shards), rz.Shards)
	}
	if rz.Status != "degraded" {
		t.Errorf("readyz status with a dead replica = %q, want degraded", rz.Status)
	}
	byReplica := make(map[[2]int]platform.ShardHealth, len(rz.Shards))
	for _, h := range rz.Shards {
		if h.ProbeAgeMs < 1 {
			t.Errorf("replica %d/%d has probe age %d, want >= 1 (poller-cached entries are stamped)", h.Shard, h.Replica, h.ProbeAgeMs)
		}
		byReplica[[2]int{h.Shard, h.Replica}] = h
	}
	if h := byReplica[[2]int{gi, 0}]; h.Ready || h.Status != "unreachable" {
		t.Errorf("dead old primary renders %+v, want unreachable", h)
	}
	waitUntil(t, 2*time.Second, "readyz to show the promoted follower as primary", func() bool {
		rz, err := client.Ready(ctx)
		if err != nil {
			return false
		}
		for _, h := range rz.Shards {
			if h.Shard == gi && h.Replica == 1 {
				return h.Ready && h.Role == platform.RolePrimary
			}
		}
		return false
	})

	// The old primary returns still believing it is primary (it reloads
	// its stale epoch from disk and was never told otherwise). The poller
	// demotes it by epoch and the new primary's shipping catches it up.
	old := startReplProc(t, filepath.Join(root, "g0-r0"), oldAddr, platform.ReplicationOptions{
		ShipInterval: 10 * time.Millisecond,
	})
	waitUntil(t, 10*time.Second, "old primary demoted and caught up", func() bool {
		ost, err := old.client.ReplStatus(ctx)
		if err != nil || ost.Role != platform.RoleFollower {
			return false
		}
		nst, err := fleet[gi].procs[1].client.ReplStatus(ctx)
		return err == nil && ost.Epoch == nst.Epoch && ost.DurableSeq == nst.DurableSeq && ost.Lag == 0
	})
	waitUntil(t, 5*time.Second, "readyz to heal after rejoin", func() bool {
		rz, err := client.Ready(ctx)
		return err == nil && rz.Status == "ready"
	})

	// Nothing acked was lost across the failover: both seed writes and the
	// post-promotion writes are in the merged dataset.
	ds, err := client.Dataset(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Accounts) != 2 {
		t.Fatalf("dataset holds %d accounts after failover, want 2", len(ds.Accounts))
	}
	for _, acct := range ds.Accounts {
		if len(acct.Observations) != 2 {
			t.Errorf("account %s has %d observations, want 2 (one pre-kill, one post-promotion)", acct.ID, len(acct.Observations))
		}
	}
}

// TestReadFailoverToFollower: with no poller (no promotion), a group whose
// primary is dead still answers reads from its follower — datasets export,
// aggregation stays undegraded — while writes fail retryably.
func TestReadFailoverToFollower(t *testing.T) {
	root := t.TempDir()
	fleet, cfgs := newReplicatedFleet(t, root, 1, 2, platform.AckAsync, 5*time.Millisecond)
	store, err := NewReplicated(context.Background(), cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := store.Submit(ctx, fmt.Sprintf("acct-%d", i), i%3, float64(i), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	pst, err := fleet[0].procs[0].client.ReplStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "follower catch-up", func() bool {
		st, err := fleet[0].procs[1].client.ReplStatus(ctx)
		return err == nil && st.DurableSeq == pst.DurableSeq
	})

	fleet[0].procs[0].kill()

	// Strict reads and aggregation answer from the follower, clean.
	ds, err := store.Dataset(ctx)
	if err != nil {
		t.Fatalf("dataset with dead primary = %v, want follower to answer", err)
	}
	if len(ds.Accounts) != 5 {
		t.Errorf("follower served %d accounts, want 5", len(ds.Accounts))
	}
	stats, err := store.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded {
		t.Errorf("stats degraded with a live follower: %+v", stats)
	}
	if _, _, err := store.Aggregate(ctx, "mean"); err != nil {
		t.Fatalf("aggregate with dead primary: %v", err)
	}

	// Writes cannot land headless — and fail with the retryable code, not
	// a hang or a misroute to the follower.
	err = store.Submit(ctx, "acct-0", 2, 99, at(30))
	if !errors.Is(err, platform.ErrShardUnavailable) {
		t.Errorf("write to headless group = %v, want ErrShardUnavailable", err)
	}
}

// TestShardHealthLiveProbes pins the no-poller ShardHealth path: every
// replica gets exactly one fully-populated entry, concurrent callers are
// race-clean (the result slice is pre-sized before the probe goroutines
// start — an append racing their writes could silently drop results into
// a stale backing array), and a dead replica renders unreachable rather
// than as a zero-value entry.
func TestShardHealthLiveProbes(t *testing.T) {
	root := t.TempDir()
	fleet, cfgs := newReplicatedFleet(t, root, 2, 2, platform.AckAsync, 10*time.Millisecond)
	store, err := NewReplicated(context.Background(), cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fleet[1].procs[1].kill()

	ctx := context.Background()
	var wg sync.WaitGroup
	results := make([][]platform.ShardHealth, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = store.ShardHealth(ctx)
		}(i)
	}
	wg.Wait()
	for i, out := range results {
		if len(out) != 4 {
			t.Fatalf("call %d: %d entries, want 4", i, len(out))
		}
		for _, h := range out {
			if h.Status == "" || h.Addr == "" {
				t.Fatalf("call %d: replica %d/%d entry never filled in: %+v", i, h.Shard, h.Replica, h)
			}
			if h.Shard == 1 && h.Replica == 1 {
				if h.Ready || h.Status != "unreachable" {
					t.Errorf("call %d: dead replica renders %+v, want unreachable", i, h)
				}
			} else if !h.Ready {
				t.Errorf("call %d: live replica %d/%d not ready: %+v", i, h.Shard, h.Replica, h)
			}
		}
	}
}

// TestFailoverRefusesPromotionWithUnobservedEpoch pins the
// epoch-visibility fence: a poller that never managed to read the
// primary's replication status (here: the primary died before the poller
// started) must not promote — its view of the dead primary's epoch is a
// zero value, so the chosen promotion epoch could collide with the real
// one and seat two writers at the same epoch. Once the primary has been
// observed alive even once, the same death promotes normally.
func TestFailoverRefusesPromotionWithUnobservedEpoch(t *testing.T) {
	root := t.TempDir()
	fleet, cfgs := newReplicatedFleet(t, root, 1, 2, platform.AckAsync, 10*time.Millisecond)
	oldAddr := fleet[0].procs[0].addrOf()
	fleet[0].procs[0].kill() // dies before the poller ever sees it

	store, err := NewReplicated(context.Background(), cfgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	poller := store.StartFailover(FailoverOptions{
		ProbeInterval: 20 * time.Millisecond,
		DeadInterval:  60 * time.Millisecond,
		Registry:      reg,
	})
	t.Cleanup(poller.Stop)

	// Give the poller several dead intervals to (wrongly) act.
	time.Sleep(300 * time.Millisecond)
	if got := store.Primary(0); got != 0 {
		t.Fatalf("poller promoted replica %d with the primary's epoch never observed", got)
	}
	if n := counterOf(reg, "repl.failovers"); n != 0 {
		t.Fatalf("repl.failovers = %d, want 0 (promotion must be fenced)", n)
	}

	// The primary returns; one successful probe clears the fence.
	old := startReplProc(t, filepath.Join(root, "g0-r0"), oldAddr, platform.ReplicationOptions{
		ShipInterval: 10 * time.Millisecond,
	})
	waitUntil(t, 5*time.Second, "poller to observe the primary's epoch", func() bool {
		for _, h := range store.ShardHealth(context.Background()) {
			if h.Shard == 0 && h.Replica == 0 {
				return h.Ready && h.Role == platform.RolePrimary
			}
		}
		return false
	})

	// The same death now promotes: the fence only guards the unknown.
	old.kill()
	waitUntil(t, 5*time.Second, "promotion once the epoch is known", func() bool {
		return store.Primary(0) == 1
	})
	if n := counterOf(reg, "repl.failovers"); n < 1 {
		t.Errorf("repl.failovers = %d after promotion, want >= 1", n)
	}
}

// TestFailoverPollerJitterBounds pins the probe-period jitter contract:
// draws stay inside [(1-Jitter), (1+Jitter)] x interval, actually spread
// across that band instead of clustering, and zero jitter is exact.
func TestFailoverPollerJitterBounds(t *testing.T) {
	const interval = 100 * time.Millisecond
	p := &FailoverPoller{opts: FailoverOptions{ProbeInterval: interval, Jitter: 0.2}}
	rng := rand.New(rand.NewSource(42))
	lo, hi := 2*interval, time.Duration(0)
	for i := 0; i < 5000; i++ {
		d := p.delay(rng)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("draw %d: delay %v outside [80ms, 120ms]", i, d)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo > 85*time.Millisecond || hi < 115*time.Millisecond {
		t.Errorf("5000 draws span [%v, %v]: jitter is not spreading probes", lo, hi)
	}

	exact := &FailoverPoller{opts: FailoverOptions{ProbeInterval: interval, Jitter: 0}}
	for i := 0; i < 100; i++ {
		if d := exact.delay(rng); d != interval {
			t.Fatalf("zero jitter drew %v, want exactly %v", d, interval)
		}
	}
}
