package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"sybiltd/internal/platform"
)

// Ingest workload: one durable node with cmd/mcsplatform's defaults under
// an open-loop write ladder, plus one SSE watcher. It exercises the whole
// write path and touches no grouping.
var (
	// ingestRates are the ladder's fixed request rates per second. The
	// first rung is the reference load: it runs for 60% of the window and
	// the E2E write metrics come from it. The other rungs share the rest
	// and find write_max_rate. The generator sends one request at a time,
	// so it saturates near the inverse of the service time: about 4.4 ms
	// per request, or 225 req/s, on a 2-vCPU virtual machine. The rungs
	// bracket that point, so a faster write path passes a higher rung and
	// a slower one fails a lower rung (METRICS.md has the measured values).
	ingestRates = []float64{50, 100, 150, 200, 250, 300}
	// writeSLOms is the latency limit on a rung's tail percentile, and on
	// its backlog, for write_max_rate.
	writeSLOms = 50.0
	// ingestPreload reports are loaded in batch-64 envelopes at set-up.
	ingestPreload = 4096
	// ingestWarmup single submits run closed loop at the end of set-up.
	ingestWarmup = 200
)

type ingest struct {
	cfg    runConfig
	dir    string
	truth  []float64
	node   *node
	client *platform.Client
	tr     *http.Transport
	exec   *executor
	watch  *platform.Watcher
	stop   context.CancelFunc
	lag    *lagTracker
	// watchDone is closed once the watch consumer goroutine has exited.
	watchDone chan struct{}
}

func newIngest(cfg runConfig, dir string) workload { return &ingest{cfg: cfg, dir: dir} }

// ingestTruth draws the per-task values the generated reports scatter
// around.
func ingestTruth(rng *rand.Rand, tasks int) []float64 {
	t := make([]float64, tasks)
	for i := range t {
		t[i] = -90 + 40*rng.Float64()
	}
	return t
}

func (w *ingest) setup(ctx context.Context, rec *recorder) error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	tasks := layoutTasks(10, w.cfg.seed)
	w.truth = ingestTruth(rng, len(tasks))
	ln, url, err := listen()
	if err != nil {
		return err
	}
	if w.node, err = startNode(ln, nodeSpec{dir: w.dir, tasks: tasks, walName: "wal", timeHandler: true}, rec); err != nil {
		return err
	}
	w.client, w.tr = newGenClient(url, rec)
	w.exec = newExecutor(w.client, rec)
	pre := newPairSource("pre", w.truth, rand.New(rand.NewSource(w.cfg.seed+1)))
	var preload []op
	for left := int(float64(ingestPreload) * w.cfg.scale); left > 0; left -= 64 {
		o := op{Kind: "batch"}
		for i := 0; i < min(64, left); i++ {
			o.Reports = append(o.Reports, pre.next())
		}
		preload = append(preload, o)
	}
	if err := mustSucceed(runClosedLoop(ctx, w.exec, preload)); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	wctx, cancel := context.WithCancel(ctx)
	w.stop = cancel
	if w.watch, err = w.client.Watch(wctx, platform.WatchOptions{}); err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	w.lag = newLagTracker()
	w.watchDone = make(chan struct{})
	go func() {
		defer close(w.watchDone)
		for u := range w.watch.Updates() {
			w.lag.update(u.Task, time.Now())
		}
	}()
	warm := newPairSource("warm", w.truth, rand.New(rand.NewSource(w.cfg.seed+2)))
	warmup := make([]op, int(float64(ingestWarmup)*w.cfg.scale)+1)
	for i := range warmup {
		warmup[i] = op{Kind: "submit", Reports: []platform.SubmissionRequest{warm.next()}}
	}
	if err := mustSucceed(runClosedLoop(ctx, w.exec, warmup)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// ingestOps builds the ladder's request stream over a window from the
// seed: evenly spaced arrivals at each rung's rate, the ingest mix, unique
// (account, task) pairs.
func ingestOps(seed int64, truth []float64, rates []float64, window time.Duration) []op {
	rng := rand.New(rand.NewSource(seed + 3))
	src := newPairSource("ing", truth, rand.New(rand.NewSource(seed+4)))
	var ops []op
	from := time.Duration(0)
	for i, rate := range rates {
		span := refSpan(window)
		if i > 0 {
			span = (window - refSpan(window)) / time.Duration(len(rates)-1)
		}
		ops = append(ops, mixedWrites(rng, src, arrivals(rate, from, span), i)...)
		from += span
	}
	return ops
}

func (w *ingest) rates() []float64 {
	out := make([]float64, len(ingestRates))
	for i, r := range ingestRates {
		out[i] = r * w.cfg.scale
	}
	return out
}

func (w *ingest) measure(ctx context.Context, out *outcome) error {
	rates := w.rates()
	window := time.Duration(w.cfg.seconds * float64(time.Second))
	ops := ingestOps(w.cfg.seed, w.truth, rates, window)
	bytes0 := w.node.walBytes()
	w.lag.reset()
	w.exec.observeAcks(w.lag.ack)
	start := time.Now().Add(10 * time.Millisecond)
	samples := runOpenLoop(ctx, w.exec, start, ops, giveUp)
	w.exec.observeAcks(nil)
	// Let the last updates arrive before reading the lags.
	time.Sleep(200 * time.Millisecond)
	out.count(samples)

	byRung := make([][]sample, len(rates))
	for _, s := range samples {
		byRung[s.op.Rung] = append(byRung[s.op.Rung], s)
	}
	out.writeE2E(writeLatencies(byRung[0]))
	maxRate, climbing := 0.0, true
	for i, ss := range byRung {
		lat := writeLatencies(ss)
		if i > 0 {
			out.timing(fmt.Sprintf("write_at_%g", rates[i]), lat)
		}
		d := summarize(lat)
		backlog := tailLateness(ss)
		out.line(fmt.Sprintf("write_at_%g_backlog_ms", rates[i]), "ms", backlog, len(ss))
		// A rung passes when all its requests were sent, its tail met the
		// limit and no backlog built up; the ladder stops at the first
		// rung that fails.
		sent := len(ss) == rungOps(ops, i)
		climbing = climbing && sent && d.TailP > 0 && d.Tail <= writeSLOms && backlog <= writeSLOms
		if climbing {
			maxRate = rates[i]
		}
	}
	out.line("write_max_rate", "1/s", maxRate, 0)
	// Watch lag, like the E2E write latency, is taken on the reference
	// rung, before the ladder overloads the node.
	refEnd := start.Add(refSpan(window))
	lags, updates := w.lag.result(refEnd)
	lag := out.timing("watch_lag", lags)
	out.E2E["truth_p50_ms"] = lag.P50

	out.win.late = lateness(samples)
	out.win.watchUpdates = updates
	for _, s := range samples {
		if s.err == nil {
			out.win.writes++
			out.win.reports += len(s.op.Reports)
		}
	}
	out.win.walBytes = w.node.walBytes() - bytes0
	return nil
}

// refSpan is the reference rung's share of the window: 60%.
func refSpan(window time.Duration) time.Duration { return window * 3 / 5 }

// rungOps counts the ops scheduled on rung i.
func rungOps(ops []op, i int) int {
	n := 0
	for _, o := range ops {
		if o.Rung == i {
			n++
		}
	}
	return n
}

// tailLateness is the median lateness, in ms, of the last tenth of a
// rung's requests: near zero while the generator keeps up, growing when a
// backlog builds.
func tailLateness(ss []sample) float64 {
	if len(ss) == 0 {
		return 0
	}
	return median(lateness(ss[len(ss)-max(1, len(ss)/10):]))
}

func (w *ingest) verify(ctx context.Context, out *outcome) error {
	ds, err := w.client.Dataset(ctx)
	if err != nil {
		return fmt.Errorf("final dataset: %w", err)
	}
	checkAcked(out, ds, w.exec.acked)
	if !w.cfg.trace {
		return nil
	}
	return analyzeDataset(ctx, w.node.store, out.offline)
}

func (w *ingest) close() error {
	if w.stop != nil {
		w.stop()
	}
	if w.watchDone != nil {
		<-w.watchDone
	}
	if w.tr != nil {
		w.tr.CloseIdleConnections()
	}
	if w.node == nil {
		return nil
	}
	return w.node.close()
}

// lagTracker measures watch lag: per task, the time from the send of the
// first acknowledged report after the task's previous watch update to the
// task's next update. It logs both sides and pairs them afterwards, so an
// update that overtakes its own ack on the way back is still paired.
type lagTracker struct {
	mu      sync.Mutex
	acks    map[int][]time.Time // per task, send times of acked reports
	updates map[int][]time.Time // per task, arrival times of updates
	n       int
}

func newLagTracker() *lagTracker {
	return &lagTracker{acks: map[int][]time.Time{}, updates: map[int][]time.Time{}}
}

func (t *lagTracker) ack(r platform.SubmissionRequest, sent time.Time) {
	t.mu.Lock()
	t.acks[r.Task] = append(t.acks[r.Task], sent)
	t.mu.Unlock()
}

func (t *lagTracker) update(task int, at time.Time) {
	t.mu.Lock()
	t.updates[task] = append(t.updates[task], at)
	t.n++
	t.mu.Unlock()
}

func (t *lagTracker) reset() {
	t.mu.Lock()
	t.acks, t.updates, t.n = map[int][]time.Time{}, map[int][]time.Time{}, 0
	t.mu.Unlock()
}

// result pairs the logs: for every update interval (prev, next] of a task,
// the first report sent inside it, before until, yields next minus its
// send time. It also returns the number of updates received.
func (t *lagTracker) result(until time.Time) ([]float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var lags []float64
	for task, ups := range t.updates {
		acks := append([]time.Time(nil), t.acks[task]...)
		sort.Slice(acks, func(i, j int) bool { return acks[i].Before(acks[j]) })
		ups = append([]time.Time(nil), ups...)
		sort.Slice(ups, func(i, j int) bool { return ups[i].Before(ups[j]) })
		k := 0
		var prev time.Time
		for _, next := range ups {
			for k < len(acks) && !acks[k].After(prev) {
				k++
			}
			if k < len(acks) && !acks[k].After(next) && acks[k].Before(until) {
				lags = append(lags, ms(next.Sub(acks[k])))
			}
			prev = next
		}
	}
	return lags, t.n
}

// mustSucceed returns the first error among set-up samples.
func mustSucceed(ss []sample) error {
	for _, s := range ss {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}
