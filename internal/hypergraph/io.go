package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// hMetis .hgr format (also used by PaToH and KaHyPar):
//
//	<numEdges> <numVertices> [fmt]
//	one line per hyperedge: [weight] pin pin ... (pins are 1-based)
//	if fmt has the vertex-weight bit, numVertices lines of vertex weights follow
//
// fmt: 0/absent unweighted, 1 edge weights, 10 vertex weights, 11 both.
// Lines starting with '%' are comments.
const (
	fmtEdgeWeights   = 1
	fmtVertexWeights = 10
)

// ReadHMetis parses a hypergraph in hMetis format from r.
func ReadHMetis(r io.Reader) (*Hypergraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	header, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("hmetis: missing header: %w", err)
	}
	fields := strings.Fields(header)
	if len(fields) < 2 || len(fields) > 3 {
		return nil, fmt.Errorf("hmetis: malformed header %q", header)
	}
	numEdges, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("hmetis: bad edge count %q", fields[0])
	}
	numVertices, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("hmetis: bad vertex count %q", fields[1])
	}
	if numEdges < 0 || numVertices < 0 {
		return nil, fmt.Errorf("hmetis: negative counts in header %q", header)
	}
	format := 0
	if len(fields) == 3 {
		format, err = strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("hmetis: bad format flag %q", fields[2])
		}
	}
	hasEW := format%10 == fmtEdgeWeights
	hasVW := format >= fmtVertexWeights

	b := NewBuilder(numVertices)
	for e := 0; e < numEdges; e++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("hmetis: edge %d: %w", e, err)
		}
		toks := strings.Fields(line)
		weight := int64(1)
		if hasEW {
			if len(toks) == 0 {
				return nil, fmt.Errorf("hmetis: edge %d: missing weight", e)
			}
			weight, err = strconv.ParseInt(toks[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("hmetis: edge %d: bad weight %q", e, toks[0])
			}
			if weight < 0 {
				return nil, fmt.Errorf("hmetis: edge %d: negative weight %d", e, weight)
			}
			toks = toks[1:]
		}
		pins := make([]int, 0, len(toks))
		for _, t := range toks {
			p, err := strconv.Atoi(t)
			if err != nil {
				return nil, fmt.Errorf("hmetis: edge %d: bad pin %q", e, t)
			}
			if p < 1 || p > numVertices {
				return nil, fmt.Errorf("hmetis: edge %d: pin %d out of range [1,%d]", e, p, numVertices)
			}
			pins = append(pins, p-1)
		}
		b.AddWeightedEdge(weight, pins...)
	}
	if hasVW {
		for v := 0; v < numVertices; v++ {
			line, err := nextDataLine(sc)
			if err != nil {
				return nil, fmt.Errorf("hmetis: vertex weight %d: %w", v, err)
			}
			w, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("hmetis: vertex weight %d: bad value %q", v, line)
			}
			if w < 0 {
				return nil, fmt.Errorf("hmetis: vertex %d: negative weight %d", v, w)
			}
			b.SetVertexWeight(v, w)
		}
	}
	h := b.Build()
	if h.NumVertices() != numVertices {
		// Builder may not have seen the highest-index vertex; force the count.
		return nil, fmt.Errorf("hmetis: internal vertex count mismatch (%d vs %d)", h.NumVertices(), numVertices)
	}
	return h, nil
}

func nextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// WriteHMetis serialises h in hMetis format. Weights are emitted only when
// the hypergraph carries them.
func WriteHMetis(w io.Writer, h *Hypergraph) error {
	bw := bufio.NewWriter(w)
	format := 0
	if h.HasEdgeWeights() {
		format += fmtEdgeWeights
	}
	if h.HasVertexWeights() {
		format += fmtVertexWeights
	}
	if format != 0 {
		fmt.Fprintf(bw, "%d %d %d\n", h.NumEdges(), h.NumVertices(), format)
	} else {
		fmt.Fprintf(bw, "%d %d\n", h.NumEdges(), h.NumVertices())
	}
	for e := 0; e < h.NumEdges(); e++ {
		if h.HasEdgeWeights() {
			fmt.Fprintf(bw, "%d", h.EdgeWeight(e))
			for _, v := range h.Pins(e) {
				fmt.Fprintf(bw, " %d", v+1)
			}
		} else {
			for i, v := range h.Pins(e) {
				if i > 0 {
					bw.WriteByte(' ')
				}
				fmt.Fprintf(bw, "%d", v+1)
			}
		}
		bw.WriteByte('\n')
	}
	if h.HasVertexWeights() {
		for v := 0; v < h.NumVertices(); v++ {
			fmt.Fprintf(bw, "%d\n", h.VertexWeight(v))
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a MatrixMarket coordinate-format sparse matrix and
// interprets it as a row-net hypergraph: every matrix row becomes a hyperedge
// whose pins are the columns with non-zeros in that row. This is the model
// used by the paper's sparse-matrix instances (2cubes_sphere, sparsine, ...),
// where |E| = |V| because the matrices are square.
func ReadMatrixMarket(r io.Reader) (*Hypergraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	symmetric := false
	sawBanner := false
	var header string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "%%MatrixMarket") {
			sawBanner = true
			lower := strings.ToLower(line)
			if !strings.Contains(lower, "coordinate") {
				return nil, fmt.Errorf("matrixmarket: only coordinate format supported, got %q", line)
			}
			symmetric = strings.Contains(lower, "symmetric")
			continue
		}
		if strings.HasPrefix(line, "%") {
			continue
		}
		header = line
		break
	}
	if header == "" {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	_ = sawBanner // banner optional: bare coordinate triplets are accepted

	fields := strings.Fields(header)
	if len(fields) != 3 {
		return nil, fmt.Errorf("matrixmarket: malformed size line %q", header)
	}
	var size [3]int
	for i, name := range []string{"row", "column", "nnz"} {
		n, err := strconv.Atoi(fields[i])
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: bad %s count %q", name, fields[i])
		}
		if n < 0 {
			return nil, fmt.Errorf("matrixmarket: negative %s count %d", name, n)
		}
		size[i] = n
	}
	rows, cols, nnz := size[0], size[1], size[2]

	rowPins := make([][]int, rows)
	read := 0
	for read < nnz {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: entry %d: %w", read, err)
		}
		toks := strings.Fields(line)
		if len(toks) < 2 {
			return nil, fmt.Errorf("matrixmarket: entry %d: malformed line %q", read, line)
		}
		i, err := strconv.Atoi(toks[0])
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: entry %d: bad row %q", read, toks[0])
		}
		j, err := strconv.Atoi(toks[1])
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: entry %d: bad column %q", read, toks[1])
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("matrixmarket: entry %d: index (%d,%d) out of range %dx%d", read, i, j, rows, cols)
		}
		rowPins[i-1] = append(rowPins[i-1], j-1)
		if symmetric && i != j {
			rowPins[j-1] = append(rowPins[j-1], i-1)
		}
		read++
	}

	b := NewBuilder(cols)
	for _, pins := range rowPins {
		b.AddEdge(pins...)
	}
	return b.Build(), nil
}

// LoadFile reads a hypergraph from path, selecting the parser by extension:
// ".hgr"/".hmetis" use hMetis format, ".mtx" uses MatrixMarket. Anything else
// is attempted as hMetis.
func LoadFile(path string) (*Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var h *Hypergraph
	switch {
	case strings.HasSuffix(path, ".mtx"):
		h, err = ReadMatrixMarket(f)
	default:
		h, err = ReadHMetis(f)
	}
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	h.SetName(baseName(path))
	return h, nil
}

// SaveFile writes h to path in hMetis format.
func SaveFile(path string, h *Hypergraph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteHMetis(f, h)
}

func baseName(path string) string {
	slash := strings.LastIndexByte(path, '/')
	name := path[slash+1:]
	if dot := strings.LastIndexByte(name, '.'); dot > 0 {
		name = name[:dot]
	}
	return name
}
