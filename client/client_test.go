package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/service"
)

func TestRetryGETRecoversFrom503(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok","workers":1}`)
	}))
	defer ts.Close()

	c := client.New(ts.URL, nil)
	c.Retry = client.RetryPolicy{Attempts: 3, Backoff: time.Millisecond}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health after retries: %v", err)
	}
	if h.Status != "ok" || calls.Load() != 3 {
		t.Fatalf("status %q after %d calls, want ok after 3", h.Status, calls.Load())
	}
}

func TestRetryDoesNotResendPOSTOn503(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := client.New(ts.URL, nil)
	c.Retry = client.RetryPolicy{Attempts: 3, Backoff: time.Millisecond}
	_, err := c.Submit(context.Background(), hyperpraw.PartitionRequest{Algorithm: "aware"})
	if err == nil {
		t.Fatal("submit against a 503 server succeeded")
	}
	if calls.Load() != 1 {
		t.Fatalf("POST sent %d times, a 503 must not be resent", calls.Load())
	}
}

func TestRetryRejectedResendsSubmitOn429(t *testing.T) {
	var calls atomic.Int32
	start := time.Now()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job-000001","status":"queued"}`)
	}))
	defer ts.Close()

	c := client.New(ts.URL, nil)
	c.Retry = client.RetryPolicy{Attempts: 3, Backoff: time.Millisecond, RetryRejected: true}
	info, err := c.Submit(context.Background(), hyperpraw.PartitionRequest{Algorithm: "aware"})
	if err != nil {
		t.Fatalf("submit after a retryable 429: %v", err)
	}
	if info.ID != "job-000001" || calls.Load() != 2 {
		t.Fatalf("info %+v after %d calls, want the retried job after 2", info, calls.Load())
	}
	// The server's Retry-After (1s) must override the 1ms backoff.
	if waited := time.Since(start); waited < time.Second {
		t.Fatalf("retried after %v, Retry-After demanded at least 1s", waited)
	}
}

func TestRetryRejectedStaysOptIn(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := client.New(ts.URL, nil)
	c.Retry = client.RetryPolicy{Attempts: 3, Backoff: time.Millisecond}
	_, err := c.Submit(context.Background(), hyperpraw.PartitionRequest{Algorithm: "aware"})
	if err == nil || calls.Load() != 1 {
		t.Fatalf("err=%v calls=%d: a 429 submit must not be resent without RetryRejected", err, calls.Load())
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests || apiErr.RetryAfter != 1 {
		t.Fatalf("APIError %+v, want 429 with RetryAfter 1", apiErr)
	}
}

func TestRetryBackoffStaysUnderCap(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		// No Retry-After: the client falls back to jittered exponential
		// backoff, which MaxBackoff must cap.
		http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := client.New(ts.URL, nil)
	c.Retry = client.RetryPolicy{Attempts: 6, Backoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	start := time.Now()
	_, err := c.Health(context.Background())
	if err == nil || calls.Load() != 6 {
		t.Fatalf("err=%v calls=%d, want exhaustion after 6", err, calls.Load())
	}
	// Full jitter draws each of the 5 waits from at most [0, 20ms]; even
	// with scheduling slack the total must sit far below an uncapped
	// exponential (1+2+4+8+16 ms is fine, 1s-scale is not).
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("6 capped attempts took %v", elapsed)
	}
}

func TestAPIErrorCarriesStatusCode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown job job-42"}`, http.StatusNotFound)
	}))
	defer ts.Close()

	_, err := client.New(ts.URL, nil).Job(context.Background(), "job-42")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an APIError", err)
	}
	if apiErr.StatusCode != http.StatusNotFound || apiErr.Message != "unknown job job-42" {
		t.Fatalf("APIError %+v", apiErr)
	}
}

func TestStreamProgressParsesSSE(t *testing.T) {
	frames := []hyperpraw.ProgressEvent{
		{JobID: "job-000001", Seq: 1, IterationPoint: hyperpraw.IterationPoint{Iteration: 1, CommCost: 12.5, Moves: 3}},
		{JobID: "job-000001", Seq: 2, IterationPoint: hyperpraw.IterationPoint{Iteration: 2, CommCost: 9.25, InTolerance: true}},
		// A final frame whose data: line (an 8 KiB error) outgrows the
		// scanner's 4 KiB starting buffer.
		{JobID: "job-000001", Seq: 3, Final: true, Status: hyperpraw.JobFailed,
			Error: "kernel: " + strings.Repeat("cut too deep; ", 600)},
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, ": keepalive comment the parser must skip\n\n")
		for _, ev := range frames {
			if err := service.WriteSSE(w, ev); err != nil {
				t.Error(err)
			}
		}
	}))
	defer ts.Close()

	var got []hyperpraw.ProgressEvent
	err := client.New(ts.URL, nil).StreamProgress(context.Background(), "job-000001", 0,
		func(ev hyperpraw.ProgressEvent) error {
			got = append(got, ev)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("parsed %d events, want %d", len(got), len(frames))
	}
	for i := range frames {
		if got[i] != frames[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], frames[i])
		}
	}
}

func TestStreamProgressReportsEarlyEnd(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		service.WriteSSE(w, hyperpraw.ProgressEvent{ //nolint:errcheck
			JobID: "job-000001", Seq: 1,
			IterationPoint: hyperpraw.IterationPoint{Iteration: 1},
		})
		// Connection closes without a final frame — a dying server.
	}))
	defer ts.Close()

	err := client.New(ts.URL, nil).StreamProgress(context.Background(), "job-000001", 0,
		func(hyperpraw.ProgressEvent) error { return nil })
	if !errors.Is(err, client.ErrStreamEnded) {
		t.Fatalf("error %v, want ErrStreamEnded", err)
	}
}
