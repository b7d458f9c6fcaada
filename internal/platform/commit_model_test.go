package platform

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sybiltd/internal/fingerprint"
	"sybiltd/internal/mcs"
	"sybiltd/internal/mems"
)

// storeModel is a plain-map model of what LocalStore must hold after a
// sequence of client mutations: each method predicts the sentinel error
// the store answers with (nil = accepted) and, on acceptance, applies the
// mutation to the model.
type storeModel struct {
	tasks       int
	maxAccounts int
	accounts    map[string]*modelAccount
	order       []string
	fenced      map[string]uint64
	fenceVer    uint64
}

type modelAccount struct {
	obs map[int]mcs.Observation
	fp  []float64
}

func newStoreModel(tasks, maxAccounts int) *storeModel {
	return &storeModel{tasks: tasks, maxAccounts: maxAccounts,
		accounts: map[string]*modelAccount{}, fenced: map[string]uint64{}}
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// admit is the fence and account-cap check every per-account write shares.
func (m *storeModel) admit(account string) (*modelAccount, error) {
	if _, moved := m.fenced[account]; moved {
		return nil, ErrWrongShard
	}
	if a := m.accounts[account]; a != nil {
		return a, nil
	}
	if m.maxAccounts > 0 && len(m.accounts) >= m.maxAccounts {
		return nil, ErrTooManyAccounts
	}
	return nil, nil
}

func (m *storeModel) register(account string) *modelAccount {
	a := &modelAccount{obs: map[int]mcs.Observation{}}
	m.accounts[account] = a
	m.order = append(m.order, account)
	return a
}

func (m *storeModel) submit(it BatchSubmission) error {
	switch {
	case it.Account == "":
		return ErrEmptyAccount
	case !finite(it.Value):
		return ErrMalformedRequest
	case it.Task < 0 || it.Task >= m.tasks:
		return ErrUnknownTask
	}
	if _, moved := m.fenced[it.Account]; moved {
		return ErrWrongShard
	}
	if a := m.accounts[it.Account]; a != nil {
		if _, dup := a.obs[it.Task]; dup {
			return ErrDuplicateReport
		}
	}
	a, err := m.admit(it.Account)
	if err != nil {
		return err
	}
	if a == nil {
		a = m.register(it.Account)
	}
	a.obs[it.Task] = mcs.Observation{Task: it.Task, Value: it.Value, Time: it.At}
	return nil
}

func (m *storeModel) fingerprint(account string, fp []float64) error {
	switch {
	case account == "":
		return ErrEmptyAccount
	case len(fp) == 0 || !finite(fp...):
		return ErrBadFingerprint
	}
	a, err := m.admit(account)
	if err != nil {
		return err
	}
	if a == nil {
		a = m.register(account)
	}
	a.fp = append([]float64(nil), fp...)
	return nil
}

func (m *storeModel) fence(v uint64, accounts []string) error {
	if v == 0 {
		return ErrMalformedRequest
	}
	for _, a := range accounts {
		if v > m.fenced[a] {
			m.fenced[a] = v
		}
	}
	if v > m.fenceVer {
		m.fenceVer = v
	}
	return nil
}

func (m *storeModel) purge(v uint64) (int, error) {
	if v == 0 {
		return 0, ErrMalformedRequest
	}
	n := 0
	for a, fv := range m.fenced {
		if fv <= v && m.accounts[a] != nil {
			delete(m.accounts, a)
			n++
		}
	}
	kept := m.order[:0]
	for _, a := range m.order {
		if m.accounts[a] != nil {
			kept = append(kept, a)
		}
	}
	m.order = kept
	return n, nil
}

// check asserts that s holds exactly the model's state: the same accounts
// in the same registration order, the same observations and fingerprints,
// and the same fences.
func (m *storeModel) check(t *testing.T, label string, s *LocalStore) {
	t.Helper()
	ds, err := s.Dataset(context.Background())
	if err != nil {
		t.Fatalf("%s: dataset: %v", label, err)
	}
	var ids []string
	for _, acct := range ds.Accounts {
		ids = append(ids, acct.ID)
	}
	if !reflect.DeepEqual(ids, m.order) && (len(ids) > 0 || len(m.order) > 0) {
		t.Fatalf("%s: accounts %v, model %v", label, ids, m.order)
	}
	for _, acct := range ds.Accounts {
		want := m.accounts[acct.ID]
		if len(acct.Observations) != len(want.obs) {
			t.Errorf("%s: %s holds %d observations, model %d", label, acct.ID, len(acct.Observations), len(want.obs))
		}
		for _, o := range acct.Observations {
			w, ok := want.obs[o.Task]
			if !ok || w.Value != o.Value || !w.Time.Equal(o.Time) {
				t.Errorf("%s: %s task %d = %v@%v, model %v (present %v)", label, acct.ID, o.Task, o.Value, o.Time, w, ok)
			}
		}
		if !reflect.DeepEqual(acct.Fingerprint, want.fp) {
			t.Errorf("%s: %s fingerprint %v, model %v", label, acct.ID, acct.Fingerprint, want.fp)
		}
	}
	s.mu.RLock()
	fenced, ver := s.fenceStateLocked()
	s.mu.RUnlock()
	if ver != m.fenceVer || len(fenced) != len(m.fenced) {
		t.Fatalf("%s: fences %v @%d, model %v @%d", label, fenced, ver, m.fenced, m.fenceVer)
	}
	for a, v := range m.fenced {
		if fenced[a] != v {
			t.Errorf("%s: fence %s = %d, model %d", label, a, fenced[a], v)
		}
	}
}

// matchErr fails unless got is the model's predicted outcome.
func matchErr(t *testing.T, step int, what string, got, want error) {
	t.Helper()
	if (want == nil) != (got == nil) || (want != nil && !errors.Is(got, want)) {
		t.Fatalf("step %d %s: store said %v, model predicts %v", step, what, got, want)
	}
}

// TestDurableCommitModelEquivalence drives a seeded script of every kind
// of client mutation — single submits, batches with in-batch duplicates,
// NaN values, unknown tasks and account-cap hits, raw and feature
// fingerprints, fences and purges — through a durable semi-sync primary
// with compaction off, checking each answer against a plain map model.
// The model's state must then match the live store, a follower caught up
// by frame shipping, and the store reopened from the WAL alone after a
// crash: live, recovered and promoted stores apply mutations identically.
func TestDurableCommitModelEquivalence(t *testing.T) {
	ctx := context.Background()
	follower := startReplNode(t, t.TempDir(), ReplicationOptions{FollowerOf: "x", ShipInterval: 5 * time.Millisecond})
	primary := startReplNode(t, t.TempDir(), ReplicationOptions{
		Mode:            AckSemiSync,
		Followers:       []string{follower.srv.URL},
		ShipInterval:    5 * time.Millisecond,
		SemiSyncTimeout: 30 * time.Second,
	})
	const numTasks, maxAccounts = 3, 12
	s := primary.store
	s.SetMaxAccounts(maxAccounts)
	m := newStoreModel(numTasks, maxAccounts)

	dev := mems.NewDevice(mems.ModelIPhone7, 1, rand.New(rand.NewSource(1)))
	captures := []mems.Recording{
		dev.Capture(mems.DefaultCaptureSpec(), rand.New(rand.NewSource(2))),
		dev.Capture(mems.DefaultCaptureSpec(), rand.New(rand.NewSource(3))),
	}
	ragged := captures[0]
	ragged.GyroZ = ragged.GyroZ[:10]

	rng := rand.New(rand.NewSource(12))
	account := func() string {
		if rng.Intn(25) == 0 {
			return ""
		}
		return fmt.Sprintf("u%02d", rng.Intn(20))
	}
	value := func() float64 {
		switch rng.Intn(15) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		}
		return float64(rng.Intn(200)) - 100
	}
	item := func(step int) BatchSubmission {
		return BatchSubmission{Account: account(), Task: rng.Intn(numTasks+2) - 1, Value: value(),
			At: at(0).Add(time.Duration(step) * time.Second)}
	}

	// outcomes counts the model's predictions by sentinel, so the script
	// provably exercises every acceptance and refusal path.
	outcomes := map[error]int{}
	tally := func(err error) { outcomes[err]++ }
	purged := 0
	for step := 0; step < 300; step++ {
		switch r := rng.Intn(100); {
		case r < 40:
			it := item(step)
			want := m.submit(it)
			matchErr(t, step, fmt.Sprintf("submit %+v", it), s.Submit(ctx, it.Account, it.Task, it.Value, it.At), want)
			tally(want)
		case r < 65:
			items := make([]BatchSubmission, 1+rng.Intn(6))
			for i := range items {
				if i > 0 && rng.Intn(4) == 0 {
					items[i] = items[rng.Intn(i)] // in-batch duplicate
					continue
				}
				items[i] = item(step)
			}
			errs := s.SubmitBatch(ctx, items)
			for i, it := range items {
				want := m.submit(it)
				matchErr(t, step, fmt.Sprintf("batch item %d %+v", i, it), errs[i], want)
				tally(want)
			}
		case r < 80:
			acct := account()
			var fp []float64
			switch rng.Intn(6) {
			case 0: // empty vector
			case 1:
				fp = []float64{1, math.NaN(), 3}
			default:
				fp = []float64{value(), 2, float64(step)}
			}
			want := m.fingerprint(acct, fp)
			matchErr(t, step, "feature fingerprint "+acct, s.RecordFingerprintFeatures(ctx, acct, fp), want)
			tally(want)
		case r < 88:
			acct := account()
			rec, feats := ragged, []float64(nil)
			if k := rng.Intn(3); k < len(captures) {
				rec, feats = captures[k], fingerprint.Extract(captures[k])
			}
			want := m.fingerprint(acct, feats)
			matchErr(t, step, "raw fingerprint "+acct, s.RecordFingerprint(ctx, acct, rec), want)
			tally(want)
		case r < 94:
			v := uint64(rng.Intn(6))
			accts := []string{fmt.Sprintf("u%02d", rng.Intn(20))}
			want := m.fence(v, accts)
			matchErr(t, step, fmt.Sprintf("fence %v @%d", accts, v), s.Fence(ctx, v, accts), want)
			tally(want)
		default:
			v := uint64(rng.Intn(6))
			wantN, want := m.purge(v)
			n, err := s.PurgeFenced(ctx, v)
			matchErr(t, step, fmt.Sprintf("purge @%d", v), err, want)
			if n != wantN {
				t.Fatalf("step %d purge @%d dropped %d accounts, model %d", step, v, n, wantN)
			}
			purged += n
			tally(want)
		}
	}
	for _, want := range []error{nil, ErrEmptyAccount, ErrMalformedRequest, ErrUnknownTask,
		ErrDuplicateReport, ErrTooManyAccounts, ErrWrongShard, ErrBadFingerprint} {
		if outcomes[want] == 0 {
			t.Fatalf("script never produced outcome %v: %v", want, outcomes)
		}
	}
	if purged == 0 {
		t.Fatal("script never purged a fenced account")
	}
	t.Logf("outcomes: %v; purged %d accounts", outcomes, purged)

	m.check(t, "live", s)

	// Semi-sync: every ack above already waited for the follower to hold
	// the record, and the follower applies shipped frames before acking.
	primarySeq := primary.d.durableSeq()
	if got := follower.d.durableSeq(); got != primarySeq {
		t.Fatalf("follower at seq %d, primary at %d", got, primarySeq)
	}
	m.check(t, "follower", follower.store)

	// Crash the primary (no final snapshot) and recover from the WAL alone.
	primary.kill()
	if err := primary.d.Abort(); err != nil {
		t.Fatal(err)
	}
	reopened, d, stats, err := OpenDurable(primary.dir, testTasks(numTasks), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if stats.SnapshotLoaded || stats.RecordsSkipped != 0 {
		t.Fatalf("recovery used a snapshot or skipped records: %+v", stats)
	}
	m.check(t, "recovered", reopened)
}

// TestSubmitRefusalsPrecedeValidation: a single submit is a batch of one,
// so a follower refuses it as not_primary and an expired deadline as
// overloaded before the item itself is validated.
func TestSubmitRefusalsPrecedeValidation(t *testing.T) {
	follower := startReplNode(t, t.TempDir(), ReplicationOptions{FollowerOf: "x"})
	ctx := context.Background()
	if err := follower.store.Submit(ctx, "", 0, 1, at(0)); !errors.Is(err, ErrNotPrimary) {
		t.Errorf("empty account on a follower: %v, want ErrNotPrimary", err)
	}
	if err := follower.store.Submit(ctx, "a", 0, math.NaN(), at(0)); !errors.Is(err, ErrNotPrimary) {
		t.Errorf("NaN on a follower: %v, want ErrNotPrimary", err)
	}
	expired, cancel := context.WithCancel(ctx)
	cancel()
	s := NewLocalStore(testTasks(1))
	if err := s.Submit(expired, "", 5, math.NaN(), at(0)); !errors.Is(err, ErrOverloaded) {
		t.Errorf("invalid submit past its deadline: %v, want ErrOverloaded", err)
	}
}
