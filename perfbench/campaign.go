package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/platform"
	"sybiltd/internal/simulate"
)

// Campaign workload: a simulated campaign under the paper's default attack
// (two attackers with 5 accounts each, fabricating -50 dBm, activeness 0.8
// for every account), preloaded, then a fixed closed-loop sequence of steps: a new
// account uploads a raw sign-in recording and its reports, then td-tr,
// td-ts, td-fp and crh are each read once.
var (
	// campaignLegit is the number of legitimate accounts: about 1k
	// accounts make one td-tr aggregate take a few hundred ms.
	campaignLegit = 1000
	// campaignFingerprinted is how many preloaded legitimate accounts carry
	// a sign-in fingerprint, besides every Sybil account and every joiner.
	// AG-FP's elbow sweep grows faster than cubically in fingerprinted
	// accounts (about 60 ms at 40, 0.5 s at 80), so a fully fingerprinted
	// 1k campaign would not answer td-fp within the request deadline.
	campaignFingerprinted = 20
	// campaignStepsPerSecond sets the fixed number of steps for a given
	// --seconds; the work does not depend on how fast the build runs.
	campaignStepsPerSecond = 0.8
	// campaignActiveness is every account's activeness, as in the paper's
	// default attack.
	campaignActiveness = 0.8
	// campaignMethods are read once per step, in this order.
	campaignMethods = []string{"td-tr", "td-ts", "td-fp", "crh"}
)

type campaign struct {
	cfg    runConfig
	dir    string
	sc     *simulate.Scenario
	buildS float64
	node   *node
	client *platform.Client
	tr     *http.Transport
	exec   *executor
	steps  []op
	recs   []mems.Recording
}

func newCampaign(cfg runConfig, dir string) workload { return &campaign{cfg: cfg, dir: dir} }

// reportsOf converts an account's observations to submissions.
func reportsOf(a mcs.Account) []platform.SubmissionRequest {
	out := make([]platform.SubmissionRequest, len(a.Observations))
	for i, o := range a.Observations {
		out[i] = platform.SubmissionRequest{Account: a.ID, Task: o.Task, Value: o.Value, Time: o.Time}
	}
	return out
}

// batches packs reports into batch envelopes of up to size reports.
func batches(reports []platform.SubmissionRequest, size int) []op {
	var ops []op
	for len(reports) > 0 {
		n := min(size, len(reports))
		ops = append(ops, op{Kind: "batch", Reports: reports[:n]})
		reports = reports[n:]
	}
	return ops
}

func (w *campaign) setup(ctx context.Context, rec *recorder) error {
	legit := max(12, int(float64(campaignLegit)*w.cfg.scale))
	t0 := time.Now()
	sc, err := simulate.Build(simulate.Config{Seed: w.cfg.seed, NumLegit: legit, LegitActiveness: campaignActiveness, SybilActiveness: campaignActiveness})
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	w.buildS = time.Since(t0).Seconds()
	w.sc = sc
	nsteps := max(2, int(w.cfg.seconds*campaignStepsPerSecond))
	fingerprinted := min(campaignFingerprinted, legit/2)
	if nsteps > legit-fingerprinted {
		return fmt.Errorf("%d steps need more than %d legitimate accounts", nsteps, legit)
	}
	firstJoiner := legit - nsteps

	ln, url, err := listen()
	if err != nil {
		return err
	}
	if w.node, err = startNode(ln, nodeSpec{dir: w.dir, tasks: sc.Dataset.Tasks, walName: "wal", timeHandler: true}, rec); err != nil {
		return err
	}
	w.client, w.tr = newGenClient(url, rec)
	w.exec = newExecutor(w.client, rec)

	var preload []platform.SubmissionRequest
	var setupOps []op
	for i, a := range sc.Dataset.Accounts {
		if i >= firstJoiner && i < legit {
			continue
		}
		preload = append(preload, reportsOf(a)...)
		if i < fingerprinted || i >= legit {
			setupOps = append(setupOps, op{Kind: "features", Account: a.ID, Features: a.Fingerprint})
		}
	}
	setupOps = append(batches(preload, 64), setupOps...)
	for _, m := range campaignMethods {
		setupOps = append(setupOps, op{Kind: "aggregate", Method: m})
	}
	if err := mustSucceed(runClosedLoop(ctx, w.exec, setupOps)); err != nil {
		return fmt.Errorf("preload: %w", err)
	}

	// The steps: each joiner signs in with a fresh capture from its own
	// device (tremor as the simulator captures legitimate users), reports,
	// and every method is read once.
	rng := rand.New(rand.NewSource(w.cfg.seed + 5))
	spec := mems.DefaultCaptureSpec()
	spec.TremorAmp = 0.015 * (1 + 2*campaignActiveness)
	w.steps, w.recs = nil, make([]mems.Recording, 0, nsteps)
	for i := firstJoiner; i < legit; i++ {
		a := sc.Dataset.Accounts[i]
		r := sc.Devices[sc.DeviceLabels[i]].Capture(spec, rng)
		w.recs = append(w.recs, r)
		w.steps = append(w.steps, op{Kind: "fingerprint", Account: a.ID, Recording: &w.recs[len(w.recs)-1]})
		for _, rep := range reportsOf(a) {
			w.steps = append(w.steps, op{Kind: "submit", Reports: []platform.SubmissionRequest{rep}})
		}
		for _, m := range campaignMethods {
			w.steps = append(w.steps, op{Kind: "aggregate", Method: m})
		}
	}
	return nil
}

func (w *campaign) measure(ctx context.Context, out *outcome) error {
	bytes0 := w.node.walBytes()
	samples := runClosedLoop(ctx, w.exec, w.steps)
	out.win.walBytes = w.node.walBytes() - bytes0
	campaignMetrics(out, samples)
	return nil
}

// campaignMetrics fills the campaign's E2E metrics and report lines from
// the steps' samples.
func campaignMetrics(out *outcome, samples []sample) {
	out.count(samples)
	byMethod := map[string][]float64{}
	var fps []float64
	for _, s := range samples {
		switch {
		case s.op.Kind == "aggregate":
			byMethod[s.op.Method] = append(byMethod[s.op.Method], latencyMs(s))
		case s.op.Kind == "fingerprint":
			fps = append(fps, latencyMs(s))
		case s.err == nil:
			out.win.writes++
			out.win.reports += len(s.op.Reports)
		}
	}
	out.writeE2E(writeLatencies(samples))
	for _, m := range campaignMethods {
		d := out.timing("aggregate_"+metricLabel(m), byMethod[m])
		if m == "td-tr" {
			out.E2E["truth_p50_ms"] = d.P50
		}
	}
	out.timing("fingerprint", fps)
}

// metricLabel turns a method name into a metric-name fragment: td-tr to
// tdtr.
func metricLabel(method string) string { return strings.ReplaceAll(method, "-", "") }

func (w *campaign) verify(ctx context.Context, out *outcome) error {
	ds, err := w.client.Dataset(ctx)
	if err != nil {
		return fmt.Errorf("final dataset: %w", err)
	}
	out.line("accounts_final", "count", float64(ds.NumAccounts()), 0)
	checkAcked(out, ds, w.exec.acked)
	if err := checkServed(ctx, out, w.exec, ds, campaignMethods); err != nil {
		return err
	}
	tdtr, err := servedMAE(w.exec.answers["td-tr"], w.sc.GroundTruth)
	if err != nil {
		return err
	}
	crh, err := servedMAE(w.exec.answers["crh"], w.sc.GroundTruth)
	if err != nil {
		return err
	}
	out.line("tdtr_mae_db", "dB", tdtr, 0)
	out.line("crh_mae_db", "dB", crh, 0)
	out.check("tdtr_mae_below_crh", tdtr < crh, fmt.Sprintf("td-tr %.4f dB, crh %.4f dB", tdtr, crh))
	if !w.cfg.trace {
		return nil
	}
	out.offline["simulate.build_s"] = w.buildS
	if err := analyzeDataset(ctx, w.node.store, out.offline); err != nil {
		return err
	}
	analyzeExtract(w.recs, out.offline)
	analyzeDTW(ds, w.cfg.seed, out.offline)
	return analyzeFramework(ds, ownerLabels(w.sc), out.offline)
}

// ownerLabels maps each scenario account to its true owner.
func ownerLabels(sc *simulate.Scenario) map[string]int {
	m := make(map[string]int, len(sc.Dataset.Accounts))
	for i, a := range sc.Dataset.Accounts {
		m[a.ID] = sc.OwnerLabels[i]
	}
	return m
}

func (w *campaign) close() error {
	if w.tr != nil {
		w.tr.CloseIdleConnections()
	}
	if w.node == nil {
		return nil
	}
	return w.node.close()
}
