package service

// Admission-control tests: the inflight-bytes bound, per-job deadlines
// (queued expiry and mid-run kernel cancellation), the RetryAfter hint and
// its Retry-After header, and drain-deadline journaling of still-queued jobs.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hyperpraw"
	"hyperpraw/internal/store"
)

func TestSubmitRejectsOverInflightBytes(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{
		Workers:          1,
		QueueDepth:       16,
		MaxInflightBytes: int64(len(tinyHMetis)) + 8, // one upload fits, two don't
		ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment {
			<-block
			return hyperpraw.Profile(m)
		},
	})
	defer s.Shutdown(context.Background())
	defer close(block) // LIFO: release the worker before Shutdown waits on it
	req := tinyRequest(t, "aware", hyperpraw.MachineSpec{Kind: "archer", Cores: 4})
	if _, err := s.Submit(req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req); !errors.Is(err, ErrInflightBytes) {
		t.Fatalf("second upload = %v, want ErrInflightBytes", err)
	}
	// Catalog-instance requests carry no upload: admitted regardless.
	inst, err := ParseRequest(hyperpraw.PartitionRequest{
		Algorithm: "oblivious",
		Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		Instance:  &hyperpraw.InstanceSpec{Name: "sparsine", Scale: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(inst); err != nil {
		t.Fatalf("zero-cost instance submit = %v", err)
	}
	if h := s.Health(); h.InflightBytes != int64(len(tinyHMetis)) || h.MaxInflightBytes == 0 {
		t.Fatalf("health inflight accounting: %+v", h)
	}
}

func TestInflightBytesReleasedAtFinish(t *testing.T) {
	s := New(Config{Workers: 1, MaxInflightBytes: int64(len(tinyHMetis)) + 8})
	defer s.Shutdown(context.Background())
	req := tinyRequest(t, "oblivious", hyperpraw.MachineSpec{Kind: "archer", Cores: 4})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Sequential submissions each fit once the previous job released its
	// reservation.
	for i := 0; i < 3; i++ {
		info, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if _, _, err := s.Wait(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}
	if h := s.Health(); h.InflightBytes != 0 {
		t.Fatalf("inflight bytes leaked: %d", h.InflightBytes)
	}
}

func TestDeadlineExpiredWhileQueued(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{
		Workers:    1,
		QueueDepth: 4,
		ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment {
			<-block
			return hyperpraw.Profile(m)
		},
	})
	defer s.Shutdown(context.Background())
	blocker := tinyRequest(t, "aware", hyperpraw.MachineSpec{Kind: "archer", Cores: 4})
	if _, err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}

	deadlined, err := ParseRequest(hyperpraw.PartitionRequest{
		Algorithm: "aware",
		Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HMetis:    tinyHMetis,
		Options:   &hyperpraw.ServeOptions{DeadlineMS: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Submit(deadlined)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // burn the queued job's whole budget
	close(block)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, final, err := s.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != hyperpraw.JobFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("deadlined job finished as %+v, want deadline failure", final)
	}
}

func TestDeadlineCancelsRunningKernel(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	// A generous iteration budget with a tolerance no partition of this
	// graph reaches keeps the kernel restreaming until the deadline hook
	// trips; the slow faultpoint is unnecessary because profiling (the
	// slow part) happens before the kernel and the deadline only needs the
	// run to span a few passes.
	req, err := ParseRequest(hyperpraw.PartitionRequest{
		Algorithm: "aware",
		Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		Instance:  &hyperpraw.InstanceSpec{Name: "sparsine", Scale: 0.25},
		Options: &hyperpraw.ServeOptions{
			DeadlineMS:         1500,
			MaxIterations:      100000,
			ImbalanceTolerance: 1.0000001,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	_, final, err := s.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != hyperpraw.JobFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("job = %+v, want kernel-cancelled deadline failure", final)
	}
	// The worker slot must come free shortly after the deadline, not after
	// the 100000-iteration budget.
	if waited := time.Since(start); waited > time.Minute {
		t.Fatalf("deadline enforcement took %v", waited)
	}
}

func TestRetryAfterFromQueueWaits(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	if got := s.RetryAfter(); got != 1 {
		t.Fatalf("RetryAfter with no samples = %d, want floor of 1", got)
	}
	for _, sec := range []float64{3.4, 7.2, 5.1} {
		s.noteQueueWait(time.Duration(sec * float64(time.Second)))
	}
	if got := s.RetryAfter(); got != 6 { // ceil(median 5.1)
		t.Fatalf("RetryAfter = %d, want 6", got)
	}
	s.noteQueueWait(45 * time.Minute)
	s.noteQueueWait(45 * time.Minute)
	s.noteQueueWait(45 * time.Minute)
	if got := s.RetryAfter(); got != 60 {
		t.Fatalf("RetryAfter clamp = %d, want 60", got)
	}
}

func TestSubmitRejectionCarriesRetryAfterHeader(t *testing.T) {
	block := make(chan struct{})
	s := New(Config{
		Workers:    1,
		QueueDepth: 1,
		ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment {
			<-block
			return hyperpraw.Profile(m)
		},
	})
	defer s.Shutdown(context.Background())
	defer close(block) // LIFO: release the worker before Shutdown waits on it
	h := NewHandler(s)

	submit := func() *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, "/v1/partition?algorithm=aware&machine=archer&cores=4",
			strings.NewReader(tinyHMetis))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	var rejected *httptest.ResponseRecorder
	for i := 0; i < 6; i++ {
		if w := submit(); w.Code == http.StatusTooManyRequests {
			rejected = w
			break
		}
	}
	if rejected == nil {
		t.Fatal("no submission was rejected with 429")
	}
	secs, err := strconv.Atoi(rejected.Header().Get("Retry-After"))
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", rejected.Header().Get("Retry-After"))
	}
}

func TestShutdownJournalsStillQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	s := New(Config{
		Workers:    1,
		QueueDepth: 8,
		Store:      st,
		ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment {
			<-block
			return hyperpraw.Profile(m)
		},
	})
	req := tinyRequest(t, "aware", hyperpraw.MachineSpec{Kind: "archer", Cores: 4})
	var ids []string
	for i := 0; i < 3; i++ {
		info, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}

	// Drain deadline expires with the worker still blocked: Shutdown must
	// journal the stuck jobs' state before giving up.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	// Close the store before releasing the worker: its late records then
	// hit store.ErrClosed, which Service.journal ignores, so the journal
	// holds the state at the drain deadline however fast the job finishes.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	close(block) // release the worker so the goroutine can exit

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	byID := map[string]store.JobRecord{}
	for _, rec := range st2.Jobs() {
		byID[rec.Info.ID] = rec
	}
	for _, id := range ids {
		rec, ok := byID[id]
		if !ok {
			t.Fatalf("job %s missing from the journal after drain-deadline shutdown", id)
		}
		switch rec.Info.Status {
		case hyperpraw.JobDone, hyperpraw.JobFailed:
			t.Fatalf("job %s journaled terminal (%s) though it never ran", id, rec.Info.Status)
		}
		if rec.Wire == nil {
			t.Fatalf("job %s journaled without its wire request; a restart could not re-run it", id)
		}
	}
}
