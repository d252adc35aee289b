package hypergraph

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// This file is the out-of-core ingest path: a one-pass hMetis parser
// that tokenises integers straight out of the read buffer — no line
// splitting, no strings.Fields, no per-edge []string — so a
// million-vertex .hgr streams through a fixed-size window into whatever
// sink consumes it (typically graphstore's arena builder). Semantics
// match ReadHMetis exactly on all four format variants (0, 1, 10, 11);
// the property tests in stream_test.go hold the two parsers to
// edge-for-edge parity.

// StreamSink consumes parser events from ParseHMetisStream in document
// order: one Header, then NumEdges Edge calls, then (when the format
// carries vertex weights) NumVertices VertexWeight calls.
type StreamSink interface {
	// Header reports the declared dimensions and which weight sections
	// the format flag enables.
	Header(numEdges, numVertices int, hasEdgeWeights, hasVertexWeights bool) error
	// Edge delivers hyperedge e with its weight (1 when the format is
	// unweighted) and 0-based pins, sorted ascending with duplicates
	// removed — the same normalisation Builder.AddWeightedEdge applies.
	// The pins slice is scratch reused across calls; copy to retain.
	Edge(e int, weight int64, pins []int32) error
	// VertexWeight delivers the explicit weight of vertex v.
	VertexWeight(v int, w int64) error
}

// ParseHMetisStream parses hMetis text from r in a single pass, feeding
// sink as records complete. Unlike ReadHMetis it never materialises a
// line: memory use is the read buffer plus one edge's pins.
func ParseHMetisStream(r io.Reader, sink StreamSink) error {
	tz := newTokenizer(r)

	if err := tz.startRecord(); err != nil {
		return fmt.Errorf("hmetis: missing header: %w", err)
	}
	var header [4]int64
	n := 0
	for {
		v, ok, err := tz.intInLine()
		if err != nil {
			return fmt.Errorf("hmetis: malformed header: %w", err)
		}
		if !ok {
			break
		}
		if n == len(header) {
			return fmt.Errorf("hmetis: malformed header: too many fields")
		}
		header[n] = v
		n++
	}
	if n < 2 || n > 3 {
		return fmt.Errorf("hmetis: malformed header: %d fields", n)
	}
	if header[0] < 0 || header[1] < 0 || header[0] > math.MaxInt32 || header[1] > math.MaxInt32 {
		return fmt.Errorf("hmetis: dimensions %d %d out of range", header[0], header[1])
	}
	numEdges, numVertices := int(header[0]), int(header[1])
	format := 0
	if n == 3 {
		format = int(header[2])
	}
	hasEW := format%10 == fmtEdgeWeights
	hasVW := format >= fmtVertexWeights
	if err := sink.Header(numEdges, numVertices, hasEW, hasVW); err != nil {
		return err
	}

	var pins []int32
	for e := 0; e < numEdges; e++ {
		if err := tz.startRecord(); err != nil {
			return fmt.Errorf("hmetis: edge %d: %w", e, err)
		}
		weight := int64(1)
		if hasEW {
			w, ok, err := tz.intInLine()
			if err != nil {
				return fmt.Errorf("hmetis: edge %d: bad weight: %w", e, err)
			}
			if !ok {
				return fmt.Errorf("hmetis: edge %d: missing weight", e)
			}
			if w < 0 {
				return fmt.Errorf("hmetis: edge %d: negative weight %d", e, w)
			}
			weight = w
		}
		pins = pins[:0]
		for {
			p, ok, err := tz.intInLine()
			if err != nil {
				return fmt.Errorf("hmetis: edge %d: bad pin: %w", e, err)
			}
			if !ok {
				break
			}
			if p < 1 || p > int64(numVertices) {
				return fmt.Errorf("hmetis: edge %d: pin %d out of range [1,%d]", e, p, numVertices)
			}
			pins = append(pins, int32(p-1))
		}
		slices.Sort(pins)
		pins = slices.Compact(pins)
		if err := sink.Edge(e, weight, pins); err != nil {
			return err
		}
	}

	if hasVW {
		for v := 0; v < numVertices; v++ {
			if err := tz.startRecord(); err != nil {
				return fmt.Errorf("hmetis: vertex weight %d: %w", v, err)
			}
			w, ok, err := tz.intInLine()
			if err != nil || !ok {
				return fmt.Errorf("hmetis: vertex weight %d: bad value: %w", v, err)
			}
			if _, extra, err := tz.intInLine(); err != nil || extra {
				return fmt.Errorf("hmetis: vertex weight %d: trailing data on line", v)
			}
			if w < 0 {
				return fmt.Errorf("hmetis: vertex %d: negative weight %d", v, w)
			}
			if err := sink.VertexWeight(v, w); err != nil {
				return err
			}
		}
	}
	// Anything after the last record is ignored, matching ReadHMetis,
	// which never reads past the records it needs.
	return nil
}

// ReadHMetisStream is the convenience wrapper: it streams r through a
// CSRBuilder and freezes the result. It is the drop-in replacement for
// ReadHMetis on inputs too large to tokenise line-by-line.
func ReadHMetisStream(r io.Reader) (*Hypergraph, error) {
	var b CSRBuilder
	if err := ParseHMetisStream(r, &b); err != nil {
		return nil, err
	}
	return b.Hypergraph("")
}

// tokenizer reads whitespace-separated integers from a fixed window over
// r. It distinguishes inline whitespace from newlines because hMetis is
// line-structured: each hyperedge (and each vertex weight) is one line.
type tokenizer struct {
	r    io.Reader
	buf  []byte
	pos  int
	end  int
	err  error // sticky read error, surfaced once the buffer drains
	line int   // 1-based, for messages
}

func newTokenizer(r io.Reader) *tokenizer {
	return &tokenizer{r: r, buf: make([]byte, 64<<10), line: 1}
}

// fill tops up the window; it reports false at end of input.
func (t *tokenizer) fill() bool {
	if t.pos < t.end {
		return true
	}
	if t.err != nil {
		return false
	}
	for {
		n, err := t.r.Read(t.buf)
		t.pos, t.end = 0, n
		if err != nil {
			t.err = err
		}
		if n > 0 {
			return true
		}
		if err != nil {
			return false
		}
	}
}

func (t *tokenizer) ioErr() error {
	if t.err != nil && t.err != io.EOF {
		return t.err
	}
	return io.ErrUnexpectedEOF
}

// startRecord skips blank lines and '%' comment lines and positions the
// tokenizer at the first byte of the next record. It must be called
// between records (i.e. with the previous line fully consumed).
func (t *tokenizer) startRecord() error {
	for {
		if !t.fill() {
			return t.ioErr()
		}
		c := t.buf[t.pos]
		switch {
		case c == '\n':
			t.pos++
			t.line++
		case isInlineSpace(c):
			t.pos++
		case c == '%':
			// Comment: discard through the newline.
			for {
				if !t.fill() {
					return t.ioErr()
				}
				c := t.buf[t.pos]
				t.pos++
				if c == '\n' {
					t.line++
					break
				}
			}
		default:
			return nil
		}
	}
}

// intInLine reads the next integer on the current line. It returns
// ok=false (consuming the terminating newline) when the line has no
// further tokens, and an error for any non-integer byte.
func (t *tokenizer) intInLine() (val int64, ok bool, err error) {
	// Skip inline whitespace; a newline ends the line, and so does end of
	// input — including a sticky read error, which (matching
	// bufio.Scanner's buffered-data-first semantics) surfaces only when
	// startRecord needs a further record.
	for {
		if !t.fill() {
			return 0, false, nil
		}
		c := t.buf[t.pos]
		if c == '\n' {
			t.pos++
			t.line++
			return 0, false, nil
		}
		if !isInlineSpace(c) {
			break
		}
		t.pos++
	}

	neg := false
	c := t.buf[t.pos]
	if c == '-' || c == '+' {
		neg = c == '-'
		t.pos++
		if !t.fill() {
			return 0, false, fmt.Errorf("line %d: lone sign", t.line)
		}
	}
	digits := 0
	var v uint64
	for {
		if !t.fill() {
			break // EOF terminates the token
		}
		c := t.buf[t.pos]
		if c < '0' || c > '9' {
			if c == '\n' || isInlineSpace(c) {
				break // delimiter; leave for the caller / next read
			}
			return 0, false, fmt.Errorf("line %d: unexpected byte %q in integer", t.line, c)
		}
		t.pos++
		digits++
		if v >= math.MaxUint64/10 {
			return 0, false, fmt.Errorf("line %d: integer overflow", t.line)
		}
		v = v*10 + uint64(c-'0')
		if v > math.MaxInt64 {
			return 0, false, fmt.Errorf("line %d: integer overflow", t.line)
		}
	}
	if digits == 0 {
		return 0, false, fmt.Errorf("line %d: empty integer", t.line)
	}
	if neg {
		return -int64(v), true, nil
	}
	return int64(v), true, nil
}

func isInlineSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// CSRBuilder is a StreamSink that accumulates parser events directly
// into flat CSR arrays — the streaming counterpart of Builder, without
// the per-edge [][]int32. Zero value is ready to use.
type CSRBuilder struct {
	numVertices int
	numEdges    int
	hasVW       bool

	edgePtr       []int32
	edgePins      []int32
	edgeWeights   []int64
	nonUnitEW     bool
	vertexWeights []int64
}

// headerReserve caps what Header reserves per accumulator: the declared
// counts are wire input, so a 13-byte document could otherwise reserve
// hundreds of megabytes before its body proves them wrong. append grows
// the accumulators as records actually arrive.
const headerReserve = 4096

// Header records the declared dimensions and starts the accumulators.
func (b *CSRBuilder) Header(numEdges, numVertices int, hasEW, hasVW bool) error {
	b.numVertices = numVertices
	b.numEdges = numEdges
	b.hasVW = hasVW
	b.edgePtr = make([]int32, 1, min(numEdges, headerReserve)+1)
	if hasEW {
		b.edgeWeights = make([]int64, 0, min(numEdges, headerReserve))
	}
	if hasVW {
		b.vertexWeights = make([]int64, 0, min(numVertices, headerReserve))
	}
	return nil
}

// Edge appends one hyperedge's pins (already normalised by the parser).
func (b *CSRBuilder) Edge(e int, weight int64, pins []int32) error {
	if len(b.edgePins)+len(pins) > math.MaxInt32 {
		return fmt.Errorf("hmetis: pin count exceeds int32 index space")
	}
	b.edgePins = append(b.edgePins, pins...)
	b.edgePtr = append(b.edgePtr, int32(len(b.edgePins)))
	if b.edgeWeights != nil {
		b.edgeWeights = append(b.edgeWeights, weight)
		if weight != 1 {
			b.nonUnitEW = true
		}
	}
	return nil
}

// VertexWeight appends one explicit vertex weight.
func (b *CSRBuilder) VertexWeight(v int, w int64) error {
	b.vertexWeights = append(b.vertexWeights, w)
	return nil
}

// RawCSR freezes the accumulated edges: it derives the vertex→edges
// adjacency by counting sort and drops an all-ones edge-weight section,
// matching Builder.Build so fingerprints agree between the two paths.
func (b *CSRBuilder) RawCSR() (RawCSR, error) {
	if len(b.edgePtr) == 0 {
		b.edgePtr = []int32{0} // no Header call: empty hypergraph
	}
	if len(b.edgePtr)-1 != b.numEdges {
		return RawCSR{}, fmt.Errorf("hmetis: %d edges accumulated, header declared %d", len(b.edgePtr)-1, b.numEdges)
	}
	if b.hasVW && len(b.vertexWeights) != b.numVertices {
		return RawCSR{}, fmt.Errorf("hmetis: %d vertex weights accumulated, header declared %d", len(b.vertexWeights), b.numVertices)
	}

	nnz := len(b.edgePins)
	vtxPtr := make([]int32, b.numVertices+1)
	for _, v := range b.edgePins {
		vtxPtr[v+1]++
	}
	for v := 0; v < b.numVertices; v++ {
		vtxPtr[v+1] += vtxPtr[v]
	}
	vtxEdges := make([]int32, nnz)
	cursor := make([]int32, b.numVertices)
	copy(cursor, vtxPtr[:b.numVertices])
	for e := 0; e < b.numEdges; e++ {
		for _, v := range b.edgePins[b.edgePtr[e]:b.edgePtr[e+1]] {
			vtxEdges[cursor[v]] = int32(e)
			cursor[v]++
		}
	}

	ew := b.edgeWeights
	if !b.nonUnitEW {
		ew = nil // all-ones section: Builder normalises this to "unweighted"
	}
	return RawCSR{
		NumVertices:   b.numVertices,
		NumEdges:      b.numEdges,
		EdgePtr:       b.edgePtr,
		EdgePins:      b.edgePins,
		VtxPtr:        vtxPtr,
		VtxEdges:      vtxEdges,
		VertexWeights: b.vertexWeights,
		EdgeWeights:   ew,
	}, nil
}

// Hypergraph freezes the accumulated edges into an immutable Hypergraph.
func (b *CSRBuilder) Hypergraph(name string) (*Hypergraph, error) {
	c, err := b.RawCSR()
	if err != nil {
		return nil, err
	}
	return FromCSR(name, c)
}
