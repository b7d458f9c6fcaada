package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sybiltd/internal/platform"
)

// captureStreams drives the ingest and fleet request streams for seed
// through a platform.Client against a recording server and returns every
// request line and body as sent on the wire.
func captureStreams(t *testing.T, seed int64) []byte {
	t.Helper()
	var mu sync.Mutex
	var wire bytes.Buffer
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		wire.WriteString(r.Method + " " + r.URL.Path + "\n")
		wire.Write(body)
		mu.Unlock()
		if r.URL.Path == "/v1/reports:batch" {
			var req platform.BatchSubmissionRequest
			_ = json.Unmarshal(body, &req)
			resp := platform.BatchSubmissionResponse{Accepted: len(req.Reports)}
			for range req.Reports {
				resp.Results = append(resp.Results, platform.BatchItemResult{Status: "accepted"})
			}
			_ = json.NewEncoder(w).Encode(resp)
			return
		}
		if r.URL.Path == "/v1/aggregate" {
			_ = json.NewEncoder(w).Encode(platform.AggregateResponse{Method: "crh"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	client, tr := newGenClient(srv.URL, nil)
	defer tr.CloseIdleConnections()
	e := newExecutor(client, nil)
	truth := ingestTruth(rand.New(rand.NewSource(seed)), 10)
	ops := ingestOps(seed, truth, []float64{40, 60}, 2*time.Second)
	writes, reads := fleetOps(seed, truth, 30, 2, 2*time.Second)
	ops = append(append(ops, writes...), reads...)
	for _, s := range runClosedLoop(context.Background(), e, ops) {
		if s.err != nil {
			t.Fatalf("op %s: %v", s.op.Kind, s.err)
		}
	}
	return wire.Bytes()
}

func TestSameSeedSendsByteIdenticalRequestStreams(t *testing.T) {
	a, b := captureStreams(t, 7), captureStreams(t, 7)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("seed 7 produced different request streams (%d vs %d bytes)", len(a), len(b))
	}
	if bytes.Equal(a, captureStreams(t, 8)) {
		t.Fatal("seeds 7 and 8 produced the same request stream")
	}
}

func TestScheduleIsSeededAndOpenLoopTimesFromSchedule(t *testing.T) {
	truth := ingestTruth(rand.New(rand.NewSource(1)), 10)
	a, _ := json.Marshal(ingestOps(1, truth, ingestRates, 10*time.Second))
	b, _ := json.Marshal(ingestOps(1, truth, ingestRates, 10*time.Second))
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed built different schedules")
	}
	// A server that stalls the first request for 100 ms: the second
	// request, due 10 ms after the first, is charged the wait it spent
	// behind the stall.
	var n int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		first := n == 1
		mu.Unlock()
		if first {
			time.Sleep(100 * time.Millisecond)
		}
		w.WriteHeader(http.StatusAccepted)
	}))
	defer srv.Close()
	client, tr := newGenClient(srv.URL, nil)
	defer tr.CloseIdleConnections()
	ops := []op{
		{At: 0, Kind: "submit", Reports: []platform.SubmissionRequest{{Account: "a", Task: 0, Value: 1}}},
		{At: 10 * time.Millisecond, Kind: "submit", Reports: []platform.SubmissionRequest{{Account: "a", Task: 1, Value: 1}}},
	}
	ss := runOpenLoop(context.Background(), newExecutor(client, nil), time.Now(), ops, giveUp)
	if len(ss) != 2 {
		t.Fatalf("got %d samples, want 2", len(ss))
	}
	if late := ss[1].late(); late < 80*time.Millisecond {
		t.Fatalf("second request late by %v, want about 90ms", late)
	}
	if ss[1].latency() < ss[1].late() {
		t.Fatalf("latency %v is not taken from the scheduled time (late %v)", ss[1].latency(), ss[1].late())
	}
}
