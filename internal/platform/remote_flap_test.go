package platform

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestRemoteStoreFlappingEndpointDoesNotStickBreakerOpen: a replica
// endpoint that alternates shard_unavailable and success (a flapping
// process, a bouncing LB target) must not wedge the client's circuit
// breaker open when the client also has a healthy endpoint to rotate to.
// Successes reset the breaker's consecutive-failure count, and rotation
// moves traffic to the healthy base, so every write lands and the breaker
// ends the run closed — the failure mode guarded against is the breaker
// counting the flapper's every-other-request 503s as one long failure
// streak and refusing calls that would have succeeded on the other
// endpoint.
func TestRemoteStoreFlappingEndpointDoesNotStickBreakerOpen(t *testing.T) {
	backend := httptest.NewServer(NewServerWithOptions(NewLocalStore(testTasks(1)), ServerOptions{}))
	defer backend.Close()

	// The flapper: odd-numbered requests answer 503 shard_unavailable,
	// even-numbered ones serve normally.
	var hits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1)%2 == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Code: CodeShardUnavailable, Error: "shard flapping"})
			return
		}
		backend.Config.Handler.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	client := NewClient(flaky.URL,
		WithEndpoints(flaky.URL, backend.URL),
		WithRetries(3),
		WithBackoff(time.Millisecond, 5*time.Millisecond),
		WithBreaker(3, 50*time.Millisecond),
	)
	rs := NewRemoteStore(client)

	ctx := context.Background()
	for i := 0; i < 40; i++ {
		err := rs.Submit(ctx, accountName(i), 0, float64(i), at(0))
		if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("submit %d refused by a stuck-open breaker (state %v)", i, client.BreakerState())
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if st := client.BreakerState(); st != BreakerClosed {
		t.Fatalf("breaker ended %v, want closed — flapping must not latch it open", st)
	}
}

func accountName(i int) string {
	return "flap-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
