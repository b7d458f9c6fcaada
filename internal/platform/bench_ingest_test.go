package platform

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sybiltd/internal/obs"
)

// BenchmarkIngest measures acknowledged durable submits per second under
// 32 concurrent submitters, comparing the three ingestion shapes:
//
//   - no-linger: group commit with CommitLinger 0 — the leader fsyncs at
//     once, covering whatever was appended while the previous fsync ran.
//   - group-commit: concurrent single submits coalesced into shared
//     fsyncs (2ms linger, early wake at 8 pending).
//   - batched-submit: SubmitBatch envelopes of 16 — one WAL write per
//     envelope, with no linger.
//
// Run via `make bench-ingest`.
func BenchmarkIngest(b *testing.B) {
	const workers = 32

	b.Run("no-linger", func(b *testing.B) {
		benchConcurrentSubmits(b, workers, DurableOptions{})
	})
	b.Run("group-commit", func(b *testing.B) {
		benchConcurrentSubmits(b, workers, DurableOptions{
			CommitLinger:   2 * time.Millisecond,
			CommitMaxBatch: 8,
		})
	})
	b.Run("batched-submit-16", func(b *testing.B) {
		benchBatchedSubmits(b, workers, 16, DurableOptions{})
	})
}

// BenchmarkIngestReplicated measures the ack-mode cost of replication: a
// primary shipping its WAL over real HTTP to one follower, under the same
// 32-submitter load as BenchmarkIngest, comparing:
//
//   - async: acks return after the primary's own group-commit fsync; the
//     follower catches up in the background, so the overhead is just the
//     shipper competing for the WAL.
//   - semi-sync: every ack also waits for the follower to confirm the
//     record durable, putting a ship round-trip plus a remote fsync on
//     the ack path.
//
// Run via `make bench-ingest` alongside the unreplicated shapes.
func BenchmarkIngestReplicated(b *testing.B) {
	const workers = 32

	b.Run("async", func(b *testing.B) {
		benchReplicatedSubmits(b, workers, AckAsync)
	})
	b.Run("semi-sync", func(b *testing.B) {
		benchReplicatedSubmits(b, workers, AckSemiSync)
	})
}

// benchReplicatedSubmits drives b.N single submits against a primary
// replicating to one HTTP follower in the given ack mode. Both replicas
// run the group-commit ingestion shape so the comparison isolates the
// replication overhead.
func benchReplicatedSubmits(b *testing.B, workers int, mode AckMode) {
	opts := DurableOptions{CommitLinger: 2 * time.Millisecond, CommitMaxBatch: 8}
	fstore, fd, _, err := OpenDurable(b.TempDir(), testTasks(1), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer fd.Close()
	frepl := NewReplication(fstore, fd, ReplicationOptions{
		FollowerOf: "http://primary.invalid",
		Registry:   obs.NewRegistry(),
	})
	defer frepl.Close()
	fsrv := httptest.NewServer(NewServerWithOptions(fstore, ServerOptions{
		Registry:     obs.NewRegistry(),
		Replication:  frepl,
		DisableWatch: true,
	}))
	defer fsrv.Close()

	store, d, _, err := OpenDurable(b.TempDir(), testTasks(1), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	repl := NewReplication(store, d, ReplicationOptions{
		Mode:         mode,
		Followers:    []string{fsrv.URL},
		ShipInterval: time.Millisecond,
		Registry:     obs.NewRegistry(),
	})
	defer repl.Close()

	var wg sync.WaitGroup
	var idx sync.Mutex
	next := 0
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx.Lock()
				i := next
				next++
				idx.Unlock()
				if i >= b.N {
					return
				}
				account := fmt.Sprintf("w%02d-%06d", w, i)
				if err := store.Submit(context.Background(), account, 0, -80, at(0)); err != nil {
					b.Errorf("submit %s: %v", account, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-submits/sec")
}

// benchConcurrentSubmits drives b.N single submits across `workers`
// goroutines against a fresh durable store. Every (account, task) pair is
// unique so the duplicate guard never fires.
func benchConcurrentSubmits(b *testing.B, workers int, opts DurableOptions) {
	store, d, _, err := OpenDurable(b.TempDir(), testTasks(1), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()

	var wg sync.WaitGroup
	var idx sync.Mutex
	next := 0
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx.Lock()
				i := next
				next++
				idx.Unlock()
				if i >= b.N {
					return
				}
				account := fmt.Sprintf("w%02d-%06d", w, i)
				if err := store.Submit(context.Background(), account, 0, -80, at(0)); err != nil {
					b.Errorf("submit %s: %v", account, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-submits/sec")
}

// benchBatchedSubmits drives b.N submits in SubmitBatch envelopes of
// batchSize, spread across `workers` goroutines.
func benchBatchedSubmits(b *testing.B, workers, batchSize int, opts DurableOptions) {
	store, d, _, err := OpenDurable(b.TempDir(), testTasks(1), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()

	var wg sync.WaitGroup
	var idx sync.Mutex
	next := 0
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx.Lock()
				start := next
				next += batchSize
				idx.Unlock()
				if start >= b.N {
					return
				}
				end := start + batchSize
				if end > b.N {
					end = b.N
				}
				items := make([]BatchSubmission, 0, end-start)
				for i := start; i < end; i++ {
					items = append(items, BatchSubmission{
						Account: fmt.Sprintf("w%02d-%06d", w, i), Task: 0, Value: -80, At: at(0),
					})
				}
				for i, e := range store.SubmitBatch(context.Background(), items) {
					if e != nil {
						b.Errorf("batch item %d: %v", start+i, e)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "acked-submits/sec")
}
