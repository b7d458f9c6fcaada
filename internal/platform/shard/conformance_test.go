package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sybiltd/internal/platform"
)

// wireCase provokes one stable wire code on one /v1 route and states the
// full contract: HTTP status, code string, and the typed sentinel the
// code must round-trip to through errors.Is.
type wireCase struct {
	name       string
	method     string
	path       string
	body       string
	wantStatus int
	wantCode   string
	sentinel   error
	routerOnly bool // needs a sharded topology (e.g. a dead shard)
	localOnly  bool // needs single-node store knobs (e.g. the account cap)
}

// wireCases returns the conformance table. seedAccount already has a
// report on task 0, liveAccount is a fresh account on a reachable shard
// (task validation happens on the owning shard), capAccount trips the
// account cap (single-node), and deadAccount is owned by a shard that is
// down (router).
func wireCases(seedAccount, liveAccount, capAccount, deadAccount string) []wireCase {
	return []wireCase{
		{
			name: "submissions empty account", method: "POST", path: "/v1/submissions",
			body:       `{"account":"","task":0,"value":1}`,
			wantStatus: http.StatusBadRequest, wantCode: platform.CodeEmptyAccount,
			sentinel: platform.ErrEmptyAccount,
		},
		{
			name: "submissions unknown task", method: "POST", path: "/v1/submissions",
			body:       `{"account":"` + liveAccount + `","task":99,"value":1}`,
			wantStatus: http.StatusBadRequest, wantCode: platform.CodeUnknownTask,
			sentinel: platform.ErrUnknownTask,
		},
		{
			name: "submissions duplicate", method: "POST", path: "/v1/submissions",
			body:       `{"account":"` + seedAccount + `","task":0,"value":1}`,
			wantStatus: http.StatusConflict, wantCode: platform.CodeDuplicateReport,
			sentinel: platform.ErrDuplicateReport,
		},
		{
			name: "submissions malformed body", method: "POST", path: "/v1/submissions",
			body:       `{"account":`,
			wantStatus: http.StatusBadRequest, wantCode: platform.CodeMalformedRequest,
			sentinel: platform.ErrMalformedRequest,
		},
		{
			name: "batch malformed body", method: "POST", path: "/v1/reports:batch",
			body:       `[]`,
			wantStatus: http.StatusBadRequest, wantCode: platform.CodeMalformedRequest,
			sentinel: platform.ErrMalformedRequest,
		},
		{
			name: "fingerprints both forms", method: "POST", path: "/v1/fingerprints",
			body:       `{"account":"conf-fp","features":[1,2],"accel_x":[1,2,3]}`,
			wantStatus: http.StatusBadRequest, wantCode: platform.CodeBadFingerprint,
			sentinel: platform.ErrBadFingerprint,
		},
		{
			name: "aggregate unknown method", method: "POST", path: "/v1/aggregate",
			body:       `{"method":"quantum"}`,
			wantStatus: http.StatusBadRequest, wantCode: platform.CodeUnknownAggregation,
			sentinel: platform.ErrUnknownAggregation,
		},
		{
			name: "aggregate malformed body", method: "POST", path: "/v1/aggregate",
			body:       `not json`,
			wantStatus: http.StatusBadRequest, wantCode: platform.CodeMalformedRequest,
			sentinel: platform.ErrMalformedRequest,
		},
		{
			name: "submissions account cap", method: "POST", path: "/v1/submissions",
			body:       `{"account":"` + capAccount + `","task":0,"value":1}`,
			wantStatus: http.StatusTooManyRequests, wantCode: platform.CodeAccountCapReached,
			sentinel: platform.ErrTooManyAccounts, localOnly: true,
		},
		{
			name: "submissions wrong shard", method: "POST", path: "/v1/submissions",
			body:       `{"account":"conf-fenced","task":0,"value":1}`,
			wantStatus: http.StatusServiceUnavailable, wantCode: platform.CodeWrongShard,
			sentinel: platform.ErrWrongShard, localOnly: true,
		},
		{
			name: "submissions shard unavailable", method: "POST", path: "/v1/submissions",
			body:       `{"account":"` + deadAccount + `","task":0,"value":1}`,
			wantStatus: http.StatusServiceUnavailable, wantCode: platform.CodeShardUnavailable,
			sentinel: platform.ErrShardUnavailable, routerOnly: true,
		},
		{
			name: "fingerprints shard unavailable", method: "POST", path: "/v1/fingerprints",
			body:       `{"account":"` + deadAccount + `","features":[1,2,3]}`,
			wantStatus: http.StatusServiceUnavailable, wantCode: platform.CodeShardUnavailable,
			sentinel: platform.ErrShardUnavailable, routerOnly: true,
		},
		{
			name: "dataset shard unavailable", method: "GET", path: "/v1/dataset",
			wantStatus: http.StatusServiceUnavailable, wantCode: platform.CodeShardUnavailable,
			sentinel: platform.ErrShardUnavailable, routerOnly: true,
		},
	}
}

// runWireCases fires each applicable case at base and checks the triple
// (HTTP status, wire code, sentinel round-trip). The sentinel check is the
// same mapping the client's APIError.Unwrap performs, so it proves
// errors.Is works across the wire for every code the route can emit.
func runWireCases(t *testing.T, base string, cases []wireCase, router bool) {
	t.Helper()
	for _, tc := range cases {
		if (tc.routerOnly && !router) || (tc.localOnly && router) {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = bytes.NewReader([]byte(tc.body))
			}
			req, err := http.NewRequest(tc.method, base+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("HTTP %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var er platform.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			if er.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", er.Code, tc.wantCode)
			}
			if er.Error == "" {
				t.Error("error body has no human-readable message")
			}
			wire := &platform.APIError{Code: er.Code, Message: er.Error, Status: resp.StatusCode}
			if !errors.Is(wire, tc.sentinel) {
				t.Errorf("errors.Is(%v, %v) = false: code %q does not round-trip", wire, tc.sentinel, er.Code)
			}
		})
	}
}

func TestWireCodeConformanceSingleNode(t *testing.T) {
	store := platform.NewLocalStore(testTasks(1))
	store.SetMaxAccounts(2)
	api := platform.NewServerWithOptions(store, platform.ServerOptions{})
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	t.Cleanup(api.Close)

	ctx := context.Background()
	if err := store.Submit(ctx, "conf-seed", 0, 1, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	// The "unknown task" case registers its account; fill the remaining
	// cap slot so the cap case trips.
	if err := store.Submit(ctx, "conf-unknown-task", 0, 1, time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	// The wrong-shard case needs a fenced account: after a reshard hands
	// an account to another group, mutations naming it answer wrong_shard.
	if err := store.Fence(ctx, 1, []string{"conf-fenced"}); err != nil {
		t.Fatal(err)
	}
	runWireCases(t, srv.URL, wireCases("conf-seed", "conf-unknown-task", "conf-over-cap", ""), false)

	// Batch items carry the same codes positionally, and BatchItemResult
	// round-trips them to sentinels via Err().
	client := platform.NewClient(srv.URL, platform.WithHTTPClient(srv.Client()), platform.WithRetries(0))
	results, err := client.SubmitBatch(ctx, []platform.SubmissionRequest{
		{Account: "conf-seed", Task: 0, Value: 1},  // duplicate
		{Account: "conf-seed", Task: 42, Value: 1}, // unknown task
		{Account: "", Task: 0, Value: 1},           // empty account
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []error{platform.ErrDuplicateReport, platform.ErrUnknownTask, platform.ErrEmptyAccount} {
		if !errors.Is(results[i].Err(), want) {
			t.Errorf("batch item %d = %v, want %v", i, results[i].Err(), want)
		}
	}
}

func TestWireCodeConformanceRouter(t *testing.T) {
	f := newHTTPFleet(t, 3, 1)
	ctx := context.Background()
	owners := accountsPerShard(f.store)
	if err := f.client.Submit(ctx, platform.SubmissionRequest{Account: owners[0], Task: 0, Value: 1, Time: at(0)}); err != nil {
		t.Fatal(err)
	}
	// Kill shard 1 so its owner account provokes shard_unavailable (and
	// the strict dataset read fails retryably).
	f.shardHTTP[1].Close()
	runWireCases(t, f.router.URL, wireCases(owners[0], owners[0], "", owners[1]), true)
}
