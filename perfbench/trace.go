package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
	"sybiltd/internal/platform"
	"sybiltd/internal/truth"
	"sybiltd/internal/wal"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req, the ID of the request's root span; Parent is the span that caused
// this one (0 for a root). Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Err    bool   `json:"err,omitempty"`
	// Reroute marks a call refused with wrong_shard or not_primary: the
	// router must re-resolve the owner and send it again.
	Reroute bool `json:"reroute,omitempty"`
	// N is the number of items the call carried (reports in a batch,
	// frames in a ship, reports fed to the stream); 0 when not counted.
	N int `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder is a
// valid no-op, so untraced runs never install any decorator below.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanRef identifies a span for propagation through contexts and headers.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

// traceHeader carries "<req>-<parent>" from the timing transport to the
// timing handler, so server spans join the client request's tree.
const traceHeader = "X-Bench-Trace"

// active is a started, not yet ended span.
type active struct {
	r *recorder
	s span
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a span named name, parented to the span in ctx if any, and
// returns a context carrying the new span.
func (r *recorder) start(ctx context.Context, name string) (context.Context, *active) {
	if r == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(spanRef)
	a := r.startRef(parent, name)
	return context.WithValue(ctx, spanKey{}, spanRef{id: a.s.ID, req: a.s.Req}), a
}

func (r *recorder) startRef(parent spanRef, name string) *active {
	id := r.next.Add(1)
	req := parent.req
	if req == 0 {
		req = id
	}
	return &active{r: r, s: span{ID: id, Parent: parent.id, Req: req, Name: name, Start: r.now()}}
}

// end closes the span, recording whether it failed and how many items it
// carried.
func (a *active) end(err error, n int) {
	if a == nil {
		return
	}
	a.s.End = a.r.now()
	a.s.Err = err != nil
	a.s.Reroute = errors.Is(err, platform.ErrWrongShard) || errors.Is(err, platform.ErrNotPrimary)
	a.s.N = n
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children (the union of the children's
// intervals, clipped to the parent).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals within p.
func covered(p span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// timedStore is a platform.Store decorator recording one span per call,
// named "<prefix>.<method>". It sits between a Server and its store, or
// between the shard router and each backend.
type timedStore struct {
	platform.Store
	rec    *recorder
	prefix string
}

func (s *timedStore) Submit(ctx context.Context, account string, task int, value float64, at time.Time) error {
	ctx, a := s.rec.start(ctx, s.prefix+".submit")
	err := s.Store.Submit(ctx, account, task, value, at)
	a.end(err, 1)
	return err
}

func (s *timedStore) SubmitBatch(ctx context.Context, items []platform.BatchSubmission) []error {
	ctx, a := s.rec.start(ctx, s.prefix+".submit_batch")
	errs := s.Store.SubmitBatch(ctx, items)
	a.end(errors.Join(errs...), len(items))
	return errs
}

func (s *timedStore) RecordFingerprint(ctx context.Context, account string, rec mems.Recording) error {
	ctx, a := s.rec.start(ctx, s.prefix+".fingerprint")
	err := s.Store.RecordFingerprint(ctx, account, rec)
	a.end(err, 1)
	return err
}

func (s *timedStore) RecordFingerprintFeatures(ctx context.Context, account string, features []float64) error {
	ctx, a := s.rec.start(ctx, s.prefix+".fingerprint")
	err := s.Store.RecordFingerprintFeatures(ctx, account, features)
	a.end(err, 1)
	return err
}

func (s *timedStore) Dataset(ctx context.Context) (*mcs.Dataset, error) {
	ctx, a := s.rec.start(ctx, s.prefix+".dataset")
	ds, err := s.Store.Dataset(ctx)
	a.end(err, 0)
	return ds, err
}

func (s *timedStore) Aggregate(ctx context.Context, method string) (truth.Result, []float64, error) {
	ctx, a := s.rec.start(ctx, s.prefix+".aggregate."+method)
	res, unc, err := s.Store.Aggregate(ctx, method)
	a.end(err, 0)
	return res, unc, err
}

// timedBackend is timedStore around a router backend. It keeps the
// RemoteStore capabilities the router probes for: Client (replication
// control plane) and Ready (health).
type timedBackend struct {
	timedStore
	remote *platform.RemoteStore
}

func (b *timedBackend) Client() *platform.Client { return b.remote.Client() }

func (b *timedBackend) Ready(ctx context.Context) (platform.ReadyzResponse, error) {
	return b.remote.Ready(ctx)
}

// timedLocal is timedStore around a node's LocalStore. It keeps the Fencer
// capability, so the server's ring-version check runs in traced runs too.
type timedLocal struct {
	timedStore
	local *platform.LocalStore
}

func (l *timedLocal) Fence(ctx context.Context, ringVersion uint64, accounts []string) error {
	return l.local.Fence(ctx, ringVersion, accounts)
}

func (l *timedLocal) FenceVersion() uint64 { return l.local.FenceVersion() }

// timedFS is a wal.FS decorator: every Sync is a span named
// "<name>.fsync" and every byte written is counted.
type timedFS struct {
	wal.FS
	rec   *recorder
	name  string
	bytes atomic.Int64
}

func (f *timedFS) OpenFile(name string, flag int, perm iofs.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	wal.File
	fs *timedFS
}

func (t *timedFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.bytes.Add(int64(n))
	return n, err
}

func (t *timedFile) Sync() error {
	_, a := t.fs.rec.start(context.Background(), t.fs.name+".fsync")
	err := t.File.Sync()
	a.end(err, 0)
	return err
}

// timedTransport is an http.RoundTripper recording a span named
// "<name>.rt" per attempt and propagating it in traceHeader. With
// countFrames it also counts the replication frames a ship carries.
type timedTransport struct {
	base        http.RoundTripper
	rec         *recorder
	name        string
	countFrames bool
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(spanRef)
	a := t.rec.startRef(parent, t.name+".rt")
	n := 0
	if t.countFrames && req.GetBody != nil {
		n = countShipFrames(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, fmt.Sprintf("%d-%d", a.s.Req, a.s.ID))
	resp, err := t.base.RoundTrip(req)
	a.end(err, n)
	return resp, err
}

// countShipFrames decodes a replication ship body's frame count.
func countShipFrames(req *http.Request) int {
	body, err := req.GetBody()
	if err != nil {
		return 0
	}
	defer body.Close()
	var ship struct {
		Frames []json.RawMessage `json:"frames"`
	}
	buf, err := io.ReadAll(body)
	if err != nil || json.Unmarshal(buf, &ship) != nil {
		return 0
	}
	return len(ship.Frames)
}

// timedHandler records a span per request named "server.<route>",
// parented to the client span named in traceHeader, and hands the span to
// the store calls through the request context. The watch stream passes
// through untimed: it is one hours-long request, not a unit of work.
type timedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeName(r.URL.Path)
	if route == "watch" {
		h.next.ServeHTTP(w, r)
		return
	}
	var parent spanRef
	if v := r.Header.Get(traceHeader); v != "" {
		if req, id, ok := strings.Cut(v, "-"); ok {
			parent.req, _ = strconv.ParseUint(req, 10, 64)
			parent.id, _ = strconv.ParseUint(id, 10, 64)
		}
	}
	a := h.rec.startRef(parent, "server."+route)
	ctx := context.WithValue(r.Context(), spanKey{}, spanRef{id: a.s.ID, req: a.s.Req})
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r.WithContext(ctx))
	var err error
	if sw.status >= 400 {
		err = fmt.Errorf("status %d", sw.status)
	}
	a.end(err, 0)
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// routeName maps a /v1 path to the route label used in span names.
func routeName(path string) string {
	switch path {
	case "/v1/submissions":
		return "submissions"
	case "/v1/reports:batch":
		return "reports_batch"
	case "/v1/fingerprints":
		return "fingerprints"
	case "/v1/aggregate":
		return "aggregate"
	case "/v1/dataset":
		return "dataset"
	case "/v1/truths:watch":
		return "watch"
	case "/v1/repl/frames":
		return "repl_frames"
	}
	return "other"
}

// timedListener wraps the stream hub's submit listener: each delivery is a
// span named "stream.feed" carrying the number of reports fed.
func timedListener(rec *recorder, fn platform.SubmitListener) platform.SubmitListener {
	return func(items []platform.BatchSubmission) {
		_, a := rec.start(context.Background(), "stream.feed")
		fn(items)
		a.end(nil, len(items))
	}
}
