package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"kumquat/internal/server/api"
	"kumquat/internal/server/client"
)

// TestBackoffHonorsRetryAfter: a worker that sheds load answers 429 with
// a Retry-After hint; the runner surfaces it as the client's BusyError in
// one attempt, and the hint floors the delay the coordinator's retry loop
// sleeps, far above the jitter ceiling.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "at capacity"}) //nolint:errcheck
	}))
	defer hs.Close()

	_, _, err := NewHTTPRunner(hs.URL).Run(context.Background(), "sort", "b\na\n")
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("shed shard surfaced %v, want client.ErrBusy", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("runner made %d attempts, want 1: retrying is the coordinator's", n)
	}
	if d := backoff(time.Millisecond, 5*time.Millisecond, 0, err); d < 7*time.Second {
		t.Fatalf("delay = %v, want ≥ 7s Retry-After floor", d)
	}
}

// TestBackoffSaturatesAtCap: the exponential ceiling must saturate at the
// cap, not overflow. Deep into a long retry chain base<<try no longer fits
// a Duration (and a shift ≥ 64 is zero), which used to collapse the
// ceiling to a non-positive value and retry with no delay at all.
func TestBackoffSaturatesAtCap(t *testing.T) {
	const base, limit = 50 * time.Millisecond, time.Second
	for _, try := range []int{0, 5, 40, 64, 70, 1000} {
		var most time.Duration
		for i := 0; i < 64; i++ {
			d := backoff(base, limit, try, nil)
			if d < 0 || d > limit {
				t.Fatalf("try %d: delay %v outside [0, %v]", try, d, limit)
			}
			most = max(most, d)
		}
		if most == 0 {
			t.Errorf("try %d: 64 draws all chose a zero delay", try)
		}
		if try == 0 && most > base {
			t.Errorf("try 0: delay %v above the first ceiling %v", most, base)
		}
	}
	// Uncapped growth saturates too instead of wrapping negative.
	if d := backoff(time.Hour, 0, 62, nil); d < 0 {
		t.Errorf("uncapped overflow chose %v", d)
	}
	// The Retry-After floor applies on top of the jitter.
	if d := backoff(base, limit, 3, &client.BusyError{RetryAfter: 7 * time.Second}); d != 7*time.Second {
		t.Errorf("Retry-After floor: delay %v, want 7s", d)
	}
}
