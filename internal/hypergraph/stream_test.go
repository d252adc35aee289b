package hypergraph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// renderHMetis writes a random-but-valid hMetis document for h's shape,
// deliberately varying the incidental syntax (separators, comments,
// blank lines, CRLF) that both parsers must see through.
func renderHMetis(rng *rand.Rand, numVertices int, edges [][]int, edgeWeights []int64, vtxWeights []int64) string {
	var sb strings.Builder
	sep := func() string {
		switch rng.Intn(4) {
		case 0:
			return "  "
		case 1:
			return "\t"
		default:
			return " "
		}
	}
	eol := func() string {
		if rng.Intn(5) == 0 {
			return "\r\n"
		}
		return "\n"
	}
	noise := func() {
		for rng.Intn(3) == 0 {
			switch rng.Intn(3) {
			case 0:
				sb.WriteString("% a comment line" + eol())
			case 1:
				sb.WriteString(eol())
			case 2:
				sb.WriteString("   % indented comment" + eol())
			}
		}
	}

	format := 0
	if edgeWeights != nil {
		format += 1
	}
	if vtxWeights != nil {
		format += 10
	}
	noise()
	if format != 0 {
		fmt.Fprintf(&sb, "%d%s%d%s%d%s", len(edges), sep(), numVertices, sep(), format, eol())
	} else if rng.Intn(2) == 0 {
		fmt.Fprintf(&sb, "%d%s%d%s0%s", len(edges), sep(), numVertices, sep(), eol())
	} else {
		fmt.Fprintf(&sb, "%d%s%d%s", len(edges), sep(), numVertices, eol())
	}
	for e, pins := range edges {
		noise()
		first := true
		if edgeWeights != nil {
			fmt.Fprintf(&sb, "%d", edgeWeights[e])
			first = false
		}
		for _, p := range pins {
			if !first {
				sb.WriteString(sep())
			}
			fmt.Fprintf(&sb, "%d", p+1)
			first = false
		}
		sb.WriteString(eol())
	}
	if vtxWeights != nil {
		for _, w := range vtxWeights {
			noise()
			fmt.Fprintf(&sb, "%d%s", w, eol())
		}
	}
	noise()
	return sb.String()
}

func randomInstance(rng *rand.Rand) (string, *Hypergraph) {
	numVertices := 1 + rng.Intn(40)
	numEdges := rng.Intn(30)
	edges := make([][]int, numEdges)
	for e := range edges {
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			edges[e] = append(edges[e], rng.Intn(numVertices))
		}
	}
	var edgeWeights, vtxWeights []int64
	switch rng.Intn(4) {
	case 1:
		edgeWeights = randWeights(rng, numEdges)
	case 2:
		vtxWeights = randWeights(rng, numVertices)
	case 3:
		edgeWeights = randWeights(rng, numEdges)
		vtxWeights = randWeights(rng, numVertices)
	}
	doc := renderHMetis(rng, numVertices, edges, edgeWeights, vtxWeights)
	want, err := ReadHMetis(strings.NewReader(doc))
	if err != nil {
		panic(fmt.Sprintf("reference parser rejected generated doc: %v\n%s", err, doc))
	}
	return doc, want
}

func randWeights(rng *rand.Rand, n int) []int64 {
	ws := make([]int64, n)
	for i := range ws {
		ws[i] = 1 + rng.Int63n(9)
	}
	return ws
}

func sameHypergraph(t *testing.T, want, got *Hypergraph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() || got.NumPins() != want.NumPins() {
		t.Fatalf("shape mismatch: got %d/%d/%d want %d/%d/%d",
			got.NumVertices(), got.NumEdges(), got.NumPins(),
			want.NumVertices(), want.NumEdges(), want.NumPins())
	}
	if got.HasEdgeWeights() != want.HasEdgeWeights() || got.HasVertexWeights() != want.HasVertexWeights() {
		t.Fatalf("weight presence mismatch: got ew=%v vw=%v want ew=%v vw=%v",
			got.HasEdgeWeights(), got.HasVertexWeights(), want.HasEdgeWeights(), want.HasVertexWeights())
	}
	if fa, fb := Fingerprint(want), Fingerprint(got); fa != fb {
		t.Fatalf("fingerprint mismatch: %s vs %s", fa, fb)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("streamed hypergraph invalid: %v", err)
	}
}

// TestStreamParityRandom: on randomly generated documents spanning all
// four hMetis format variants, the streaming parser and ReadHMetis
// produce structurally identical hypergraphs (same fingerprint).
func TestStreamParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		doc, want := randomInstance(rng)
		got, err := ReadHMetisStream(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("case %d: stream parser rejected valid doc: %v\n%s", i, err, doc)
		}
		sameHypergraph(t, want, got)
	}
}

// TestStreamParityFormats pins the four canonical format variants.
func TestStreamParityFormats(t *testing.T) {
	docs := map[string]string{
		"fmt0":  "3 6\n1 2\n3 4 5\n5 6\n",
		"fmt1":  "3 6 1\n7 1 2\n2 3 4 5\n1 5 6\n",
		"fmt10": "3 6 10\n1 2\n3 4 5\n5 6\n4\n5\n6\n7\n8\n9\n",
		"fmt11": "3 6 11\n7 1 2\n2 3 4 5\n1 5 6\n4\n5\n6\n7\n8\n9\n",
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			want, err := ReadHMetis(strings.NewReader(doc))
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			got, err := ReadHMetisStream(strings.NewReader(doc))
			if err != nil {
				t.Fatalf("stream: %v", err)
			}
			sameHypergraph(t, want, got)
		})
	}
}

// TestStreamParityDegenerate covers the shapes the random generator is
// unlikely to hit: zero edges, duplicate pins, empty weighted edges,
// comments everywhere, all-ones edge weights (normalised to unweighted).
func TestStreamParityDegenerate(t *testing.T) {
	docs := []string{
		"0 5\n",
		"0 5 10\n1\n2\n3\n4\n5\n",
		"2 4\n1 1 1 2\n4 3 3\n",
		"2 4 1\n9\n3 1 2\n",           // weighted edge with no pins
		"1 3 1\n1 1 2 3\n",            // all-ones weights collapse to unweighted
		"% lead\n\n1 2\n%x\n1 2\n%\n", // comment storm
		"1 1\n1\n",
		"2 3 11\n1 1\n1 2 3\n1\n1\n1\n", // all-ones vertex weights stay explicit
	}
	for i, doc := range docs {
		want, werr := ReadHMetis(strings.NewReader(doc))
		got, gerr := ReadHMetisStream(strings.NewReader(doc))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("case %d: error divergence: reference=%v stream=%v\n%q", i, werr, gerr, doc)
		}
		if werr == nil {
			sameHypergraph(t, want, got)
		}
	}
}

// TestStreamErrorsMatchReference: malformed inputs must be rejected by
// both parsers — never accepted by one and refused by the other.
func TestStreamErrorsMatchReference(t *testing.T) {
	bad := []string{
		"",
		"%only comments\n",
		"nope\n",
		"2\n",
		"1 2 3 4 5\n",
		"-1 3\n1\n",
		"2 -3\n",
		"2 4\n1 2\n",               // truncated: one edge missing
		"1 4\n1 9\n",               // pin out of range
		"1 4\n0 1\n",               // pin below range
		"1 4 1\nx 1\n",             // bad weight
		"1 4\n1 2x\n",              // bad pin token
		"1 2 10\n1\n5\n",           // truncated vertex weights
		"1 2 10\n1 2\n5 6\n",       // two weights on one line
		"99999999999999999999 3\n", // header overflow
	}
	for i, doc := range bad {
		_, werr := ReadHMetis(strings.NewReader(doc))
		_, gerr := ReadHMetisStream(strings.NewReader(doc))
		if werr == nil || gerr == nil {
			t.Fatalf("case %d %q: want both parsers to error, got reference=%v stream=%v", i, doc, werr, gerr)
		}
	}
}

// TestStreamMutationFuzz mutates valid documents and requires the two
// parsers to agree: both accept (with identical fingerprints) or both
// reject.
func TestStreamMutationFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alphabet := []byte("0123456789 \t\n%-x")
	for i := 0; i < 600; i++ {
		doc, _ := randomInstance(rng)
		b := []byte(doc)
		for m := 0; m < 1+rng.Intn(3); m++ {
			if len(b) == 0 {
				break
			}
			switch rng.Intn(3) {
			case 0: // flip a byte
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			case 1: // delete a byte
				p := rng.Intn(len(b))
				b = append(b[:p], b[p+1:]...)
			case 2: // insert a byte
				p := rng.Intn(len(b) + 1)
				b = append(b[:p], append([]byte{alphabet[rng.Intn(len(alphabet))]}, b[p:]...)...)
			}
		}
		mut := string(b)
		want, werr := ReadHMetis(strings.NewReader(mut))
		got, gerr := ReadHMetisStream(strings.NewReader(mut))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("case %d: divergence on %q: reference=%v stream=%v", i, mut, werr, gerr)
		}
		if werr == nil {
			sameHypergraph(t, want, got)
		}
	}
}

// TestStreamSmallReads drips the document through a 1-byte reader to
// exercise every buffer-refill boundary in the tokenizer.
func TestStreamSmallReads(t *testing.T) {
	doc := "3 6 11\n7 1 2\n2 3 4 5\n1 5 6\n4\n5\n6\n7\n8\n9\n"
	want, err := ReadHMetis(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadHMetisStream(&iotest{s: doc})
	if err != nil {
		t.Fatalf("stream over 1-byte reads: %v", err)
	}
	sameHypergraph(t, want, got)
}

type iotest struct {
	s string
	i int
}

func (r *iotest) Read(p []byte) (int, error) {
	if r.i >= len(r.s) {
		return 0, errEOF
	}
	p[0] = r.s[r.i]
	r.i++
	return 1, nil
}

var errEOF = fmt.Errorf("EOF sentinel") // not io.EOF: exercises the sticky-error path too

// FromCSR round-trip: CSR() out of a built hypergraph feeds FromCSR and
// yields an identical structure sharing storage.
func TestFromCSRRoundTrip(t *testing.T) {
	b := NewBuilder(5)
	b.AddWeightedEdge(3, 0, 1, 2)
	b.AddWeightedEdge(1, 2, 3)
	b.SetVertexWeight(4, 9)
	h := b.Build()
	h2, err := FromCSR("copy", h.CSR())
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(h) != Fingerprint(h2) {
		t.Fatal("FromCSR changed the fingerprint")
	}
	if &h.CSR().EdgePins[0] != &h2.CSR().EdgePins[0] {
		t.Fatal("FromCSR copied the pin array; want aliasing")
	}
	if err := h2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// FromCSR must reject inconsistent arrays rather than build a
// hypergraph whose accessors can panic.
func TestFromCSRRejectsBadArrays(t *testing.T) {
	good := func() RawCSR {
		b := NewBuilder(3)
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		return b.Build().CSR()
	}
	cases := map[string]func(c *RawCSR){
		"short edgePtr":    func(c *RawCSR) { c.EdgePtr = c.EdgePtr[:1] },
		"bad pin":          func(c *RawCSR) { c.EdgePins = []int32{0, 9, 1, 2} },
		"non-monotone":     func(c *RawCSR) { c.EdgePtr = []int32{0, 3, 2} },
		"pin count":        func(c *RawCSR) { c.VtxEdges = c.VtxEdges[:2] },
		"weights length":   func(c *RawCSR) { c.EdgeWeights = []int64{1} },
		"bad vertex edge":  func(c *RawCSR) { c.VtxEdges = []int32{0, 0, 5, 1} },
		"nonzero ptr base": func(c *RawCSR) { c.EdgePtr = []int32{1, 2, 4} },
	}
	for name, mutate := range cases {
		c := good()
		mutate(&c)
		if _, err := FromCSR("", c); err == nil {
			t.Errorf("%s: FromCSR accepted invalid arrays", name)
		}
	}
}

// TestHMetisRejectsNegativeWeights: both parsers refuse a negative
// hyperedge or vertex weight and name the record that carries it.
func TestHMetisRejectsNegativeWeights(t *testing.T) {
	for _, tc := range []struct {
		doc, want string
	}{
		{"2 3 1\n1 1 2\n-3 2 3\n", "edge 1: negative weight -3"},
		{"1 3 10\n1 2 3\n1\n-2\n4\n", "vertex 1: negative weight -2"},
	} {
		_, werr := ReadHMetis(strings.NewReader(tc.doc))
		_, gerr := ReadHMetisStream(strings.NewReader(tc.doc))
		for _, err := range []error{werr, gerr} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%q: got %v, want an error naming %q", tc.doc, err, tc.want)
			}
		}
	}
}
