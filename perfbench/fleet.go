package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"sybiltd/internal/platform"
	"sybiltd/internal/simulate"
)

// Fleet workload: the shard router (failover poller on, as in
// cmd/mcsrouter) over two replica groups, each a durable primary with a
// semi-sync follower. Writes go through the router open loop at a fixed
// rate beside an open-loop reader asking for td-tr and crh on a smaller
// preloaded campaign.
var (
	// fleetLegit is the preloaded campaign's legitimate account count.
	fleetLegit = 400
	// fleetWriteRate is the writer's request rate per second.
	fleetWriteRate = 25.0
	// fleetReadRate is the reader's request rate per second; reads
	// alternate td-tr and crh.
	fleetReadRate = 2.0
	// fleetGroups is the number of replica groups.
	fleetGroups = 2
	// fleetMethods are the methods the reader alternates.
	fleetMethods = []string{"td-tr", "crh"}
	// fleetFinal are the methods read once after the window for the
	// bit-identity check.
	fleetFinal = []string{"td-tr", "td-ts", "td-fp", "crh"}
)

type fleet struct {
	cfg    runConfig
	dir    string
	sc     *simulate.Scenario
	buildS float64
	nodes  []*node
	router *router
	client *platform.Client
	tr     *http.Transport
	exec   *executor
}

func newFleet(cfg runConfig, dir string) workload { return &fleet{cfg: cfg, dir: dir} }

func (w *fleet) setup(ctx context.Context, rec *recorder) error {
	legit := max(12, int(float64(fleetLegit)*w.cfg.scale))
	t0 := time.Now()
	sc, err := simulate.Build(simulate.Config{Seed: w.cfg.seed, NumLegit: legit, LegitActiveness: campaignActiveness, SybilActiveness: campaignActiveness})
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	w.buildS = time.Since(t0).Seconds()
	w.sc = sc
	tasks := sc.Dataset.Tasks

	// Listeners first, so every node knows its peers' URLs before any
	// starts serving.
	var groups [][]string
	for g := 0; g < fleetGroups; g++ {
		pln, purl, err := listen()
		if err != nil {
			return err
		}
		fln, furl, err := listen()
		if err != nil {
			pln.Close()
			return err
		}
		gdir := filepath.Join(w.dir, fmt.Sprintf("g%d", g))
		f, err := startNode(fln, nodeSpec{dir: filepath.Join(gdir, "follower"), tasks: tasks, followerOf: purl, walName: "follower.wal"}, rec)
		if err != nil {
			pln.Close()
			return err
		}
		w.nodes = append(w.nodes, f)
		p, err := startNode(pln, nodeSpec{dir: filepath.Join(gdir, "primary"), tasks: tasks, followers: []string{furl}, walName: "wal"}, rec)
		if err != nil {
			return err
		}
		w.nodes = append(w.nodes, p)
		groups = append(groups, []string{purl, furl})
	}
	if w.router, err = startRouter(ctx, groups, rec); err != nil {
		return err
	}
	w.client, w.tr = newGenClient(w.router.url, rec)
	w.exec = newExecutor(w.client, rec)

	var preload []platform.SubmissionRequest
	for _, a := range sc.Dataset.Accounts {
		preload = append(preload, reportsOf(a)...)
	}
	setupOps := batches(preload, 64)
	warm := newPairSource("warm", sc.GroundTruth, rand.New(rand.NewSource(w.cfg.seed+2)))
	for i := 0; i < 50; i++ {
		setupOps = append(setupOps, op{Kind: "submit", Reports: []platform.SubmissionRequest{warm.next()}})
	}
	for _, m := range fleetMethods {
		setupOps = append(setupOps, op{Kind: "aggregate", Method: m})
	}
	if err := mustSucceed(runClosedLoop(ctx, w.exec, setupOps)); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

// fleetOps builds the writer's and the reader's request streams from the
// seed.
func fleetOps(seed int64, truth []float64, writeRate, readRate float64, span time.Duration) (writes, reads []op) {
	rng := rand.New(rand.NewSource(seed + 3))
	src := newPairSource("flt", truth, rand.New(rand.NewSource(seed+4)))
	writes = mixedWrites(rng, src, arrivals(writeRate, 0, span), 0)
	for i, at := range arrivals(readRate, 0, span) {
		reads = append(reads, op{At: at, Kind: "aggregate", Method: fleetMethods[i%len(fleetMethods)]})
	}
	return writes, reads
}

func (w *fleet) measure(ctx context.Context, out *outcome) error {
	span := time.Duration(w.cfg.seconds * float64(time.Second))
	writes, reads := fleetOps(w.cfg.seed, w.sc.GroundTruth, fleetWriteRate*w.cfg.scale, fleetReadRate, span)
	bytes0 := w.primaryWALBytes()
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	var readSamples []sample
	wg.Add(1)
	go func() {
		defer wg.Done()
		readSamples = runOpenLoop(ctx, w.exec, start, reads, giveUp)
	}()
	writeSamples := runOpenLoop(ctx, w.exec, start, writes, giveUp)
	wg.Wait()
	out.count(writeSamples)
	out.count(readSamples)

	out.writeE2E(writeLatencies(writeSamples))
	byMethod := map[string][]float64{}
	for _, s := range readSamples {
		byMethod[s.op.Method] = append(byMethod[s.op.Method], latencyMs(s))
	}
	for _, m := range fleetMethods {
		d := out.timing("aggregate_"+metricLabel(m), byMethod[m])
		if m == "td-tr" {
			out.E2E["truth_p50_ms"] = d.P50
		}
	}
	out.win.late = append(lateness(writeSamples), lateness(readSamples)...)
	for _, s := range writeSamples {
		if s.err == nil {
			out.win.writes++
			out.win.reports += len(s.op.Reports)
		}
	}
	out.win.walBytes = w.primaryWALBytes() - bytes0
	return nil
}

// primaryWALBytes sums the bytes the primaries wrote through their timing
// FS (0 in untraced runs).
func (w *fleet) primaryWALBytes() int64 {
	var n int64
	for _, nd := range w.nodes {
		if nd.fs != nil && nd.fs.name == "wal" {
			n += nd.walBytes()
		}
	}
	return n
}

func (w *fleet) verify(ctx context.Context, out *outcome) error {
	final := make([]op, len(fleetFinal))
	for i, m := range fleetFinal {
		final[i] = op{Kind: "aggregate", Method: m}
	}
	if err := mustSucceed(runClosedLoop(ctx, w.exec, final)); err != nil {
		return fmt.Errorf("final reads: %w", err)
	}
	ds, err := w.client.Dataset(ctx)
	if err != nil {
		return fmt.Errorf("final dataset: %w", err)
	}
	out.line("accounts_final", "count", float64(ds.NumAccounts()), 0)
	checkAcked(out, ds, w.exec.acked)
	if err := checkServed(ctx, out, w.exec, ds, fleetFinal); err != nil {
		return err
	}
	if !w.cfg.trace {
		return nil
	}
	out.offline["simulate.build_s"] = w.buildS
	analyzeDTW(ds, w.cfg.seed, out.offline)
	return analyzeFramework(ds, ownerLabels(w.sc), out.offline)
}

func (w *fleet) close() error {
	if w.tr != nil {
		w.tr.CloseIdleConnections()
	}
	if w.router != nil {
		w.router.close()
	}
	var errs []error
	for _, n := range w.nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(errs...)
}
