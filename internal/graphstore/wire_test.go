package graphstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"hyperpraw/internal/hypergraph"
)

const wireTinyHMetis = "6 8\n1 2 3\n2 4\n3 5 6\n1 7 8\n4 5\n6 7\n"

// TestArenaWireRoundTrip feeds one store's serialised arena bytes into
// another store — the gateway→backend replication path — and expects a
// byte-identical graph under the same fingerprint, with no reparse of the
// hMetis text.
func TestArenaWireRoundTrip(t *testing.T) {
	src, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	a, releaseA, err := src.IngestReader(strings.NewReader(wireTinyHMetis), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	defer releaseA()

	dst, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	b, releaseB, err := dst.IngestReader(bytes.NewReader(a.Raw()), "tiny")
	if err != nil {
		t.Fatalf("ingesting arena wire format: %v", err)
	}
	defer releaseB()

	if b.ID() != a.ID() {
		t.Fatalf("round-trip ID %s, want %s", b.ID(), a.ID())
	}
	ha, hb := a.Hypergraph(), b.Hypergraph()
	if hb.NumVertices() != ha.NumVertices() || hb.NumEdges() != ha.NumEdges() {
		t.Fatalf("round-trip dims %dx%d, want %dx%d",
			hb.NumVertices(), hb.NumEdges(), ha.NumVertices(), ha.NumEdges())
	}
	if !bytes.Equal(a.Raw(), b.Raw()) {
		t.Fatal("round-trip arena bytes differ")
	}
}

// TestArenaWireCorruption flips a payload byte and expects the CRC check
// to refuse the stream rather than intern a torn arena.
func TestArenaWireCorruption(t *testing.T) {
	src, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	a, release, err := src.IngestReader(strings.NewReader(wireTinyHMetis), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	raw := append([]byte(nil), a.Raw()...)
	raw[len(raw)-1] ^= 0xff

	dst, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, _, err := dst.IngestReader(bytes.NewReader(raw), "tiny"); err == nil {
		t.Fatal("corrupted arena stream was accepted")
	}
	if dst.Stats().Known != 0 {
		t.Fatalf("corrupted stream left %d graphs behind", dst.Stats().Known)
	}
}

// TestArenaWireTruncated cuts the stream short at several offsets, and
// extends it past its declared size, and expects a clean refusal each
// time.
func TestArenaWireTruncated(t *testing.T) {
	src, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	a, release, err := src.IngestReader(strings.NewReader(wireTinyHMetis), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	raw := a.Raw()
	streams := [][]byte{
		raw[:9], raw[:headerSize], raw[:len(raw)-1],
		append(append([]byte(nil), raw...), 0),
		append(append([]byte(nil), raw...), raw...),
	}
	for _, stream := range streams {
		dst, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := dst.IngestReader(bytes.NewReader(stream), "tiny"); err == nil {
			t.Fatalf("arena stream of %d bytes (arena %d) was accepted", len(stream), len(raw))
		}
		dst.Close()
	}
}

// ingestAlloc returns the bytes one IngestReader call of stream into a
// fresh memory-only store allocates, and its error.
func ingestAlloc(t *testing.T, cfg Config, stream []byte) (uint64, *Arena, error) {
	t.Helper()
	dst, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dst.Close)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, release, err := dst.IngestReader(bytes.NewReader(stream), "alloc")
	runtime.ReadMemStats(&after)
	if err == nil {
		release()
	}
	return after.TotalAlloc - before.TotalAlloc, a, err
}

// TestIngestArenaAllocation ingests a 14.4 MB arena (200,000 vertices and
// edges, 8 pins each): the stream goes straight into the arena's own
// buffer, so one IngestReader call allocates at most 2.5 times the arena
// (reading it whole and then copying it took 6.7 times).
func TestIngestArenaAllocation(t *testing.T) {
	const nv = 200000
	b := hypergraph.NewBuilder(nv)
	pins := make([]int, 8)
	for e := 0; e < nv; e++ {
		for k := range pins {
			pins[k] = (e + k*nv/8) % nv
		}
		b.AddEdge(pins...)
	}
	src, err := buildArena("big", b.Build().CSR())
	if err != nil {
		t.Fatal(err)
	}
	got, a, err := ingestAlloc(t, Config{}, src.Raw())
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != src.ID() {
		t.Fatalf("ingested ID %s, want %s", a.ID(), src.ID())
	}
	if bound := uint64(len(src.Raw())) * 5 / 2; got > bound {
		t.Fatalf("ingesting a %d-byte arena allocated %d bytes, want at most %d", len(src.Raw()), got, bound)
	}
}

// TestIngestArenaHeaderBounds checks that a header's declared dimensions
// never size an allocation by themselves: a header declaring 1 GiB and
// then ending allocates under 1 MiB, and dimensions outside int32 or an
// arena over MaxUploadBytes are refused as too large before any read.
func TestIngestArenaHeaderBounds(t *testing.T) {
	header := func(nv, ne, np uint64) []byte {
		h := make([]byte, headerSize)
		copy(h, arenaMagic)
		binary.LittleEndian.PutUint64(h[8:], nv)
		binary.LittleEndian.PutUint64(h[16:], ne)
		binary.LittleEndian.PutUint64(h[24:], np)
		return h
	}
	got, _, err := ingestAlloc(t, Config{}, header(0, 0, 128<<20))
	if err == nil || errors.Is(err, ErrTooLarge) {
		t.Fatalf("1 GiB header with no body: err %v, want a truncation error", err)
	}
	if got > 1<<20 {
		t.Fatalf("1 GiB header with no body allocated %d bytes, want at most 1 MiB", got)
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		stream []byte
	}{
		{"vertices past int32", Config{}, header(1<<31, 0, 0)},
		{"negative edges", Config{}, header(0, ^uint64(0), 0)},
		{"pins past int32", Config{}, header(0, 0, 1<<40)},
		{"over the upload limit", Config{MaxUploadBytes: 1 << 20}, header(0, 0, 1<<20)},
	} {
		if _, _, err := ingestAlloc(t, tc.cfg, tc.stream); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: err %v, want ErrTooLarge", tc.name, err)
		}
	}
}
