package client_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"hyperpraw/client"
)

// TestUploadPartBufferFitsSource pins the part buffer of an upload whose
// source reports its length: a 10 KB document sent with the default part
// size must not allocate DefaultPartSize (8 MiB) for its one part.
func TestUploadPartBufferFitsSource(t *testing.T) {
	const docBytes = 10 << 10
	var parts atomic.Int32
	var received atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/hypergraphs":
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"id":"up-1","state":"uploading"}`)
		case r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/hypergraphs/up-1/parts/"):
			parts.Add(1)
			received.Add(n)
			fmt.Fprint(w, `{"id":"up-1","state":"uploading"}`)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/hypergraphs/up-1/commit":
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"id":"cafe","state":"committed"}`)
		default:
			http.Error(w, `{"error":"unexpected request"}`, http.StatusBadRequest)
		}
	}))
	defer ts.Close()
	c := client.New(ts.URL, nil)
	doc := bytes.Repeat([]byte("1 2 3\n"), docBytes/6)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	info, err := c.UploadHypergraph(context.Background(), bytes.NewReader(doc), "small", 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "cafe" || parts.Load() != 1 || received.Load() != int64(len(doc)) {
		t.Fatalf("upload committed %q in %d parts of %d bytes, want cafe in 1 part of %d",
			info.ID, parts.Load(), received.Load(), len(doc))
	}
	// The count covers the client and the in-process server, whose HTTP
	// plumbing (connection set-up included) took 55-175 KB here; an 8 MiB
	// part buffer is far past the bound.
	const bound = 512 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("uploading %d bytes allocated %d bytes, want at most %d", len(doc), got, bound)
	}
}

// TestUploadEmptySourceEnds guards the one-byte floor on the part
// buffer: an empty source must still reach the commit rather than spin
// on zero-length reads.
func TestUploadEmptySourceEnds(t *testing.T) {
	var commits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/hypergraphs":
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{"id":"up-1","state":"uploading"}`)
		case r.Method == http.MethodPost && r.URL.Path == "/v1/hypergraphs/up-1/commit":
			commits.Add(1)
			http.Error(w, `{"error":{"code":"upload_incomplete","message":"no parts"}}`, http.StatusConflict)
		default:
			http.Error(w, `{"error":"unexpected request"}`, http.StatusBadRequest)
		}
	}))
	defer ts.Close()
	_, err := client.New(ts.URL, nil).UploadHypergraph(context.Background(), bytes.NewReader(nil), "empty", 0)
	if err == nil || commits.Load() != 1 {
		t.Fatalf("empty upload: err %v after %d commits, want the server's refusal after 1", err, commits.Load())
	}
}
