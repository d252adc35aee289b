package hypergraph

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"hyperpraw/internal/stats"
)

func TestReadHMetisBasic(t *testing.T) {
	in := "% comment\n3 4\n1 2\n2 3 4\n1 4\n"
	h, err := ReadHMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 3 || h.NumVertices() != 4 {
		t.Fatalf("got %d edges %d vertices", h.NumEdges(), h.NumVertices())
	}
	pins := h.Pins(1)
	if len(pins) != 3 || pins[0] != 1 || pins[2] != 3 {
		t.Fatalf("edge 1 pins %v", pins)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadHMetisEdgeWeights(t *testing.T) {
	in := "2 3 1\n5 1 2\n7 2 3\n"
	h, err := ReadHMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasEdgeWeights() {
		t.Fatal("edge weights missing")
	}
	if h.EdgeWeight(0) != 5 || h.EdgeWeight(1) != 7 {
		t.Fatalf("weights %d %d", h.EdgeWeight(0), h.EdgeWeight(1))
	}
}

func TestReadHMetisVertexWeights(t *testing.T) {
	in := "1 3 10\n1 2 3\n4\n5\n6\n"
	h, err := ReadHMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasVertexWeights() {
		t.Fatal("vertex weights missing")
	}
	if h.VertexWeight(0) != 4 || h.VertexWeight(2) != 6 {
		t.Fatalf("weights %d %d", h.VertexWeight(0), h.VertexWeight(2))
	}
}

func TestReadHMetisBothWeights(t *testing.T) {
	in := "1 2 11\n9 1 2\n3\n4\n"
	h, err := ReadHMetis(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.EdgeWeight(0) != 9 || h.VertexWeight(1) != 4 {
		t.Fatal("combined weights wrong")
	}
}

func TestReadHMetisErrors(t *testing.T) {
	cases := []string{
		"",                  // empty
		"abc def",           // non-numeric header
		"2 3\n1 2\n",        // missing edge line
		"1 3\n1 9\n",        // pin out of range
		"1 3\n0 1\n",        // pin below range
		"1 2 3 4\n1 2\n",    // too many header fields
		"1 2 1\nx 1 2\n",    // bad weight
		"1 2 10\n1 2\nzz\n", // bad vertex weight
	}
	for i, in := range cases {
		if _, err := ReadHMetis(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error for %q", i, in)
		}
	}
}

func TestHMetisRoundTrip(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(0, 5)
	h := b.Build()

	var sb strings.Builder
	if err := WriteHMetis(&sb, h); err != nil {
		t.Fatal(err)
	}
	h2, err := ReadHMetis(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualHG(t, h, h2)
}

func TestHMetisRoundTripWeighted(t *testing.T) {
	b := NewBuilder(4)
	b.AddWeightedEdge(3, 0, 1)
	b.AddWeightedEdge(2, 2, 3)
	b.SetVertexWeight(1, 5)
	h := b.Build()

	var sb strings.Builder
	if err := WriteHMetis(&sb, h); err != nil {
		t.Fatal(err)
	}
	h2, err := ReadHMetis(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualHG(t, h, h2)
	if h2.EdgeWeight(0) != 3 || h2.VertexWeight(1) != 5 {
		t.Fatal("weights lost in round trip")
	}
}

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
3 4 5
1 1 1.0
1 2 2.0
2 3 0.5
3 1 -1
3 4 9
`
	h, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != 3 || h.NumVertices() != 4 {
		t.Fatalf("%d edges %d vertices", h.NumEdges(), h.NumVertices())
	}
	if h.Cardinality(0) != 2 || h.Cardinality(1) != 1 || h.Cardinality(2) != 2 {
		t.Fatalf("cardinalities %d %d %d", h.Cardinality(0), h.Cardinality(1), h.Cardinality(2))
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1.0
2 1 2.0
3 2 0.5
`
	h, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric: entry (2,1) also adds pin 2 to row 1's edge.
	if h.Cardinality(0) != 2 { // row 1: cols {1, 2}
		t.Fatalf("row 1 cardinality %d", h.Cardinality(0))
	}
	if h.Cardinality(1) != 2 { // row 2: cols {1, 3}
		t.Fatalf("row 2 cardinality %d", h.Cardinality(1))
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"%%MatrixMarket matrix array real general\n2 2 1\n1 1 5\n",
		"1 1\n",          // malformed size line
		"2 2 1\n5 1 1\n", // out of range
		"2 2 2\n1 1 1\n", // truncated entries
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestReadersRejectNegativeFields checks that a negative header count or
// edge weight is a parse error naming the field or edge, not a panic in
// the allocation the count sizes or a weight the partitioner rejects later.
func TestReadersRejectNegativeFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(io.Reader) (*Hypergraph, error)
		in   string
		want string
	}{
		{"patoh/vertices", ReadPaToH, "0 -1 0 0\n", "negative vertex count -1"},
		{"patoh/edge-weight", ReadPaToH, "0 2 1 2 1\n-5 0 1\n", "edge 0: negative weight -5"},
		{"matrixmarket/rows", ReadMatrixMarket, "-1 2 0\n", "negative row count -1"},
		{"matrixmarket/columns", ReadMatrixMarket, "2 -3 0\n", "negative column count -3"},
	} {
		_, err := tc.read(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.hgr")
	b := NewBuilder(5)
	b.AddEdge(0, 1, 4)
	b.AddEdge(2, 3)
	h := b.Build()
	if err := SaveFile(path, h); err != nil {
		t.Fatal(err)
	}
	h2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualHG(t, h, h2)
	if h2.Name() != "test" {
		t.Fatalf("name %q", h2.Name())
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/file.hgr"); err == nil {
		t.Fatal("expected error")
	}
}

// Property: write→read round-trips arbitrary random hypergraphs exactly.
func TestQuickHMetisRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		nv := rng.Intn(20) + 2
		ne := rng.Intn(30) + 1
		b := NewBuilder(nv)
		for e := 0; e < ne; e++ {
			card := rng.Intn(5) + 1
			pins := make([]int, card)
			for i := range pins {
				pins[i] = rng.Intn(nv)
			}
			b.AddEdge(pins...)
		}
		h := b.Build()
		var sb strings.Builder
		if err := WriteHMetis(&sb, h); err != nil {
			return false
		}
		h2, err := ReadHMetis(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		return equalHG(h, h2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func assertEqualHG(t *testing.T, a, b *Hypergraph) {
	t.Helper()
	if !equalHG(a, b) {
		t.Fatal("hypergraphs differ")
	}
}

func equalHG(a, b *Hypergraph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() || a.NumPins() != b.NumPins() {
		return false
	}
	for e := 0; e < a.NumEdges(); e++ {
		pa, pb := a.Pins(e), b.Pins(e)
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return false
			}
		}
		if a.EdgeWeight(e) != b.EdgeWeight(e) {
			return false
		}
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.VertexWeight(v) != b.VertexWeight(v) {
			return false
		}
	}
	return true
}
