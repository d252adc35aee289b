package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hyperpraw"
	"hyperpraw/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFinishedJobJournaledBeforeVisible: a job's outcome reaches the
// journal before any reader can see it. At every WAL append a store hook
// inspects every job and counts those already visible as finished (done
// status, a result or a sealed progress log). The Finished record is the
// last append of a lone job's life, so a job published before it is
// journaled is caught there.
func TestFinishedJobJournaledBeforeVisible(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st := openStore(t, t.TempDir())
	s := New(Config{Workers: 1, Store: st})
	t.Cleanup(func() {
		s.Shutdown(ctx) //nolint:errcheck
		st.Close()      //nolint:errcheck
	})
	var mu sync.Mutex
	appends, early := 0, 0
	st.SetTimingHooks(func(time.Duration) {
		s.mu.Lock()
		jobs := make([]*job, 0, len(s.jobs))
		for _, j := range s.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		appends++
		for _, j := range jobs {
			j.mu.Lock()
			visible := j.info.Status == hyperpraw.JobDone || j.result != nil
			j.mu.Unlock()
			if _, sealed := j.progress.all(); visible || sealed {
				early++
			}
		}
	}, nil)

	info, err := s.Submit(tinyRequest(t, "aware", hyperpraw.MachineSpec{Kind: "archer", Cores: 4}))
	if err != nil {
		t.Fatal(err)
	}
	res, got, err := s.Wait(ctx, info.ID)
	if err != nil || res == nil || got.Status != hyperpraw.JobDone {
		t.Fatalf("job ended %v with result %v: %v", got.Status, res, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if appends < 3 {
		t.Fatalf("hook saw %d appends, want submit, running and finish", appends)
	}
	if early != 0 {
		t.Fatalf("a job was readable as finished at %d of %d WAL appends", early, appends)
	}
}

// TestServiceRestartServesStoredResults is the durability core: a finished
// job's result and progress history must survive a stop/start cycle and be
// served immediately — no recomputation, no id reuse.
func TestServiceRestartServesStoredResults(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	info, err := s1.Submit(tinyRequest(t, "aware", hyperpraw.MachineSpec{Kind: "archer", Cores: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Persisted {
		t.Fatal("submission against a durable store not marked persisted")
	}
	res1, _, err := s1.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	t.Cleanup(func() {
		s2.Shutdown(ctx) //nolint:errcheck
		st2.Close()      //nolint:errcheck
	})

	res2, info2, ok := s2.Result(info.ID)
	if !ok || res2 == nil {
		t.Fatalf("restarted service lost the result: ok=%t res=%v", ok, res2)
	}
	if info2.Status != hyperpraw.JobDone || !info2.Persisted {
		t.Fatalf("recovered info %+v", info2)
	}
	// Byte-for-byte the stored computation, not a re-run: ElapsedMS is the
	// original run's wall time.
	if res2.ElapsedMS != res1.ElapsedMS {
		t.Fatalf("recovered ElapsedMS %g != original %g (recomputed?)", res2.ElapsedMS, res1.ElapsedMS)
	}
	if len(res2.Parts) != len(res1.Parts) {
		t.Fatalf("recovered %d parts, want %d", len(res2.Parts), len(res1.Parts))
	}
	for i := range res1.Parts {
		if res1.Parts[i] != res2.Parts[i] {
			t.Fatal("recovered parts differ from the original")
		}
	}

	// The progress history replays over SSE, final frame included.
	ts := httptest.NewServer(NewHandler(s2))
	t.Cleanup(ts.Close)
	events := collectEvents(t, ts.URL, info.ID, 0)
	if want := len(res1.History) + 1; len(events) != want {
		t.Fatalf("replayed %d events after restart, want %d (history + final)", len(events), want)
	}
	if final := events[len(events)-1]; final.Status != hyperpraw.JobDone {
		t.Fatalf("replayed final frame %+v", final)
	}

	// Fresh submissions continue the id sequence instead of colliding.
	info3, err := s2.Submit(tinyRequest(t, "oblivious", hyperpraw.MachineSpec{Kind: "archer", Cores: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if info3.ID == info.ID {
		t.Fatalf("restarted service reissued id %s", info.ID)
	}
}

// TestServiceRestartRequeuesUnfinished covers the crash-with-work-in-
// flight half: jobs journaled as queued or running when the process died
// must re-enter the queue under their original ids and complete.
func TestServiceRestartRequeuesUnfinished(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	gate := make(chan struct{})
	st1 := openStore(t, dir)
	s1 := New(Config{
		Workers: 1,
		Store:   st1,
		ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment {
			<-gate
			return hyperpraw.Profile(m)
		},
	})
	t.Cleanup(func() {
		close(gate)
		s1.Shutdown(ctx) //nolint:errcheck
	})

	machine := hyperpraw.MachineSpec{Kind: "archer", Cores: 4}
	running, err := s1.Submit(tinyRequest(t, "aware", machine))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s1.Submit(tinyRequest(t, "oblivious", machine))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the single worker to pick up (and journal) the first job.
	for {
		if info, ok := s1.Job(running.ID); ok && info.Status == hyperpraw.JobRunning {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("first job never started running")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// "Crash": the store detaches mid-flight; s1's later journal appends
	// fail silently and its in-memory results never reach disk.
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 2, Store: st2})
	t.Cleanup(func() {
		s2.Shutdown(ctx) //nolint:errcheck
		st2.Close()      //nolint:errcheck
	})
	for _, id := range []string{running.ID, queued.ID} {
		res, info, err := s2.Wait(ctx, id)
		if err != nil {
			t.Fatalf("recovered job %s: %v", id, err)
		}
		if info.Status != hyperpraw.JobDone || !info.Persisted {
			t.Fatalf("recovered job %s: %+v (%s)", id, info, info.Error)
		}
		if res == nil || len(res.Parts) != 8 {
			t.Fatalf("recovered job %s result %+v", id, res)
		}
	}
}

// TestServiceReplayExceedingQueueDepth: recovering more unfinished jobs
// than the configured queue depth must neither deadlock New nor fail the
// overflow — the queue grows to reabsorb everything the store hands back.
func TestServiceReplayExceedingQueueDepth(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	st1 := openStore(t, dir)
	wire := hyperpraw.PartitionRequest{
		Algorithm: "oblivious",
		Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HMetis:    tinyHMetis,
	}
	for i := 1; i <= 4; i++ {
		if err := st1.Append(store.Submitted(hyperpraw.JobInfo{
			ID:     jobID(i),
			Status: hyperpraw.JobQueued,
		}, wire)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	s := New(Config{Workers: 1, QueueDepth: 2, Store: st2})
	t.Cleanup(func() {
		s.Shutdown(ctx) //nolint:errcheck
		st2.Close()     //nolint:errcheck
	})
	for i := 1; i <= 4; i++ {
		_, info, err := s.Wait(ctx, jobID(i))
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != hyperpraw.JobDone {
			t.Fatalf("recovered job %s: %s (%s), want done", jobID(i), info.Status, info.Error)
		}
	}
}

func jobID(n int) string { return fmt.Sprintf("job-%06d", n) }
