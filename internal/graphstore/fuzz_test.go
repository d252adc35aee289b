package graphstore

import (
	"bytes"
	"errors"
	"testing"

	"hyperpraw/internal/hypergraph"
)

// FuzzIngestReader feeds arbitrary bytes to IngestReader, the path of a
// one-shot upload and of every gateway replication. No input may panic,
// and a graph it accepts must re-ingest from its own arena bytes (Raw) to
// the same ID. The seed corpus under testdata/fuzz holds a valid arena,
// its hMETIS text, a truncated and an over-long arena, a flipped checksum
// and headers with negative or huge dimensions.
func FuzzIngestReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaredVertices(data) > 1<<16 {
			// The hMETIS path allocates by its declared vertex count
			// (CSRBuilder.RawCSR), a known cost that needs a size policy;
			// keep the fuzzer on the framing instead.
			t.Skip("hMETIS header declares too many vertices")
		}
		src, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		a, release, err := src.IngestReader(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		defer release()
		dst, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Close()
		b, releaseB, err := dst.IngestReader(bytes.NewReader(a.Raw()), "fuzz")
		if err != nil {
			t.Fatalf("accepted graph %s does not re-ingest from its arena: %v", a.ID(), err)
		}
		defer releaseB()
		if b.ID() != a.ID() {
			t.Fatalf("re-ingested arena has ID %s, want %s", b.ID(), a.ID())
		}
	})
}

// declaredVertices returns the vertex count an hMETIS header declares,
// or 0 when data is not hMETIS text with a readable header.
func declaredVertices(data []byte) int {
	var h headerOnly
	if err := hypergraph.ParseHMetisStream(bytes.NewReader(data), &h); !errors.Is(err, errHeaderRead) {
		return 0
	}
	return h.numVertices
}

var errHeaderRead = errors.New("header read")

// headerOnly is a StreamSink that stops the parse at the header.
type headerOnly struct{ numVertices int }

func (h *headerOnly) Header(_, numVertices int, _, _ bool) error {
	h.numVertices = numVertices
	return errHeaderRead
}

func (h *headerOnly) Edge(int, int64, []int32) error { return nil }

func (h *headerOnly) VertexWeight(int, int64) error { return nil }
