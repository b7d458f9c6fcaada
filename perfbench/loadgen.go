package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sybiltd/internal/mems"
	"sybiltd/internal/platform"
)

// op is one generated request. Ops are built up front from the seed, so a
// seed fixes the request stream byte for byte; At is the scheduled send
// time as an offset from the start of the window.
type op struct {
	At        time.Duration                `json:"at"`
	Rung      int                          `json:"rung,omitempty"`
	Kind      string                       `json:"kind"` // submit, batch, features, fingerprint, aggregate
	Reports   []platform.SubmissionRequest `json:"reports,omitempty"`
	Account   string                       `json:"account,omitempty"`
	Features  []float64                    `json:"features,omitempty"`
	Recording *mems.Recording              `json:"recording,omitempty"`
	Method    string                       `json:"method,omitempty"`
}

// isWrite reports whether the op is a report submission (single or batch),
// the unit the write_* metrics time.
func (o *op) isWrite() bool { return o.Kind == "submit" || o.Kind == "batch" }

// campaignEpoch anchors every generated report timestamp, so timestamps
// come from the seed and never from the wall clock.
var campaignEpoch = time.Date(2019, 3, 1, 9, 0, 0, 0, time.UTC)

// arrivals returns evenly spaced send offsets at rate per second in
// [from, from+span). An even schedule keeps run-to-run spread down: the
// seed decides what is sent, not how bursty the arrivals are.
func arrivals(rate float64, from, span time.Duration) []time.Duration {
	gap := time.Duration(float64(time.Second) / rate)
	var out []time.Duration
	for t := from + gap/2; t < from+span; t += gap {
		out = append(out, t)
	}
	return out
}

// pairSource hands out (account, task) pairs that never repeat: each new
// account reports on every task in turn before the next account starts.
type pairSource struct {
	prefix string
	tasks  int
	acct   int
	task   int
	n      int
	truth  []float64
	rng    *rand.Rand
}

func newPairSource(prefix string, truth []float64, rng *rand.Rand) *pairSource {
	return &pairSource{prefix: prefix, tasks: len(truth), truth: truth, rng: rng}
}

// next returns the next report: a fresh pair, a noisy reading of the
// task's true value, and a timestamp one second after the previous one.
func (p *pairSource) next() platform.SubmissionRequest {
	r := platform.SubmissionRequest{
		Account: fmt.Sprintf("%s%06d", p.prefix, p.acct),
		Task:    p.task,
		Value:   p.truth[p.task] + p.rng.NormFloat64()*2,
		Time:    campaignEpoch.Add(time.Duration(p.n) * time.Second),
	}
	p.n++
	if p.task++; p.task == p.tasks {
		p.task, p.acct = 0, p.acct+1
	}
	return r
}

// ingestMix is the ingest request mix: batchShare of requests are batch
// envelopes of batchSize reports, the rest single submits.
const (
	batchShare = 0.10
	batchSize  = 16
)

// mixedWrites builds write ops at the given arrival offsets: single
// submits, with batchShare of them batch-16 envelopes.
func mixedWrites(rng *rand.Rand, src *pairSource, at []time.Duration, rung int) []op {
	ops := make([]op, 0, len(at))
	for _, t := range at {
		o := op{At: t, Rung: rung, Kind: "submit"}
		n := 1
		if rng.Float64() < batchShare {
			o.Kind, n = "batch", batchSize
		}
		for i := 0; i < n; i++ {
			o.Reports = append(o.Reports, src.next())
		}
		ops = append(ops, o)
	}
	return ops
}

// sample is the outcome of one executed op.
type sample struct {
	op   *op
	due  time.Time // scheduled send time (send time in a closed loop)
	sent time.Time
	done time.Time
	err  error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }
func (s sample) late() time.Duration    { return s.sent.Sub(s.due) }

// executor runs ops against the platform through one platform.Client and
// remembers every acknowledged report for the zero-loss check.
type executor struct {
	client *platform.Client
	rec    *recorder

	mu    sync.Mutex
	acked []platform.SubmissionRequest
	// onAck, when set, observes each acknowledged report with the time its
	// request was sent (the watch-lag tracker). Set it with observeAcks.
	onAck func(r platform.SubmissionRequest, sent time.Time)
	// degraded counts served aggregates flagged Degraded.
	degraded int
	// answers keeps the last served answer per aggregation method.
	answers map[string]platform.AggregateResponse
}

func newExecutor(client *platform.Client, rec *recorder) *executor {
	return &executor{client: client, rec: rec, answers: map[string]platform.AggregateResponse{}}
}

// observeAcks installs (or, with nil, removes) the ack observer.
func (e *executor) observeAcks(fn func(r platform.SubmissionRequest, sent time.Time)) {
	e.mu.Lock()
	e.onAck = fn
	e.mu.Unlock()
}

// exec performs one op and returns its error.
func (e *executor) exec(ctx context.Context, o *op) error {
	sent := time.Now()
	ctx, a := e.rec.start(ctx, "client."+o.Kind)
	var err error
	var ok []platform.SubmissionRequest
	switch o.Kind {
	case "submit":
		if err = e.client.Submit(ctx, o.Reports[0]); err == nil {
			ok = o.Reports
		}
	case "batch":
		var res []platform.BatchItemResult
		res, err = e.client.SubmitBatch(ctx, o.Reports)
		if err == nil {
			for i, r := range res {
				if ierr := r.Err(); ierr != nil {
					err = errors.Join(err, ierr)
					continue
				}
				ok = append(ok, o.Reports[i])
			}
		}
	case "features":
		err = e.client.RecordFeatureFingerprint(ctx, o.Account, o.Features)
	case "fingerprint":
		err = e.client.RecordFingerprint(ctx, o.Account, *o.Recording)
	case "aggregate":
		var resp platform.AggregateResponse
		resp, err = e.client.Aggregate(ctx, o.Method)
		if err == nil {
			e.mu.Lock()
			e.answers[o.Method] = resp
			if resp.Meta.Degraded {
				e.degraded++
			}
			e.mu.Unlock()
		}
	default:
		err = fmt.Errorf("unknown op kind %q", o.Kind)
	}
	a.end(err, len(o.Reports))
	if len(ok) > 0 {
		e.mu.Lock()
		e.acked = append(e.acked, ok...)
		onAck := e.onAck
		e.mu.Unlock()
		if onAck != nil {
			for _, r := range ok {
				onAck(r, sent)
			}
		}
	}
	return err
}

// giveUp stops an open loop that has fallen this far behind schedule.
const giveUp = time.Second

// runOpenLoop sends ops on their schedule from one goroutine, whatever
// the replies do: a slow reply delays later sends, and their latency is
// still taken from the scheduled time, so a stall is charged to every
// request it held up. Once the generator runs more than giveUp behind
// schedule the backlog is growing without bound, and the remaining ops
// are not sent.
func runOpenLoop(ctx context.Context, e *executor, start time.Time, ops []op, giveUp time.Duration) []sample {
	out := make([]sample, 0, len(ops))
	for i := range ops {
		due := start.Add(ops[i].At)
		if time.Since(due) > giveUp {
			return out
		}
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return out
			case <-time.After(d):
			}
		}
		s := sample{op: &ops[i], due: due, sent: time.Now()}
		s.err = e.exec(ctx, &ops[i])
		s.done = time.Now()
		out = append(out, s)
	}
	return out
}

// runClosedLoop sends ops back to back from one goroutine; each op's
// latency is its own service time.
func runClosedLoop(ctx context.Context, e *executor, ops []op) []sample {
	out := make([]sample, 0, len(ops))
	for i := range ops {
		if ctx.Err() != nil {
			return out
		}
		now := time.Now()
		s := sample{op: &ops[i], due: now, sent: now}
		s.err = e.exec(ctx, &ops[i])
		s.done = time.Now()
		out = append(out, s)
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencyMs is a sample's latency in ms. A failed op counts as missing
// every limit, so it enters latency samples as +Inf.
func latencyMs(s sample) float64 {
	if s.err != nil {
		return inf
	}
	return ms(s.latency())
}

// writeLatencies returns the latency in ms of every write op in ss.
func writeLatencies(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.op.isWrite() {
			out = append(out, latencyMs(s))
		}
	}
	return out
}

// lateness returns how late, in ms, each op in ss was sent.
func lateness(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.late())
	}
	return out
}
