package hypergraph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WritePartition serialises a partition vector, one assignment per line —
// the format hMetis/PaToH tooling consumes.
func WritePartition(w io.Writer, parts []int32) error {
	bw := bufio.NewWriter(w)
	for _, p := range parts {
		if _, err := fmt.Fprintln(bw, p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPartition parses a one-assignment-per-line partition vector. Blank
// lines and '%' comments are skipped.
func ReadPartition(r io.Reader) ([]int32, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var parts []int32
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		v, err := strconv.ParseInt(text, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("partition: line %d: bad assignment %q", line, text)
		}
		if v < 0 {
			return nil, fmt.Errorf("partition: line %d: negative assignment %d", line, v)
		}
		parts = append(parts, int32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return parts, nil
}

// SavePartition writes parts to path.
func SavePartition(path string, parts []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WritePartition(f, parts)
}

// LoadPartition reads a partition vector from path.
func LoadPartition(path string) ([]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPartition(f)
}

// ReadPaToH parses PaToH's hypergraph format:
//
//	<base> <numVertices> <numEdges> <numPins> [weightScheme]
//	one line per hyperedge: [weight] pin pin ...  (pins use <base> indexing)
//	with vertex weights appended per line or as a trailing block depending
//	on scheme; this reader supports schemes 0 (none), 1 (edge weights only).
//
// PaToH is the partitioner the paper cites alongside hMetis; supporting its
// format lets the catalog interoperate with PaToH-prepared datasets.
func ReadPaToH(r io.Reader) (*Hypergraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	header, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("patoh: missing header: %w", err)
	}
	fields := strings.Fields(header)
	if len(fields) < 4 || len(fields) > 5 {
		return nil, fmt.Errorf("patoh: malformed header %q", header)
	}
	nums := make([]int, len(fields))
	for i, f := range fields {
		nums[i], err = strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("patoh: bad header field %q", f)
		}
	}
	base, numVertices, numEdges, numPins := nums[0], nums[1], nums[2], nums[3]
	scheme := 0
	if len(nums) == 5 {
		scheme = nums[4]
	}
	for i, name := range []string{"vertex", "edge", "pin"} {
		if n := nums[i+1]; n < 0 {
			return nil, fmt.Errorf("patoh: negative %s count %d", name, n)
		}
	}
	if base != 0 && base != 1 {
		return nil, fmt.Errorf("patoh: unsupported index base %d", base)
	}
	if scheme != 0 && scheme != 1 {
		return nil, fmt.Errorf("patoh: unsupported weight scheme %d (only 0 and 1)", scheme)
	}

	b := NewBuilder(numVertices)
	pinCount := 0
	for e := 0; e < numEdges; e++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("patoh: edge %d: %w", e, err)
		}
		toks := strings.Fields(line)
		weight := int64(1)
		if scheme == 1 {
			if len(toks) == 0 {
				return nil, fmt.Errorf("patoh: edge %d: missing weight", e)
			}
			weight, err = strconv.ParseInt(toks[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("patoh: edge %d: bad weight %q", e, toks[0])
			}
			if weight < 0 {
				return nil, fmt.Errorf("patoh: edge %d: negative weight %d", e, weight)
			}
			toks = toks[1:]
		}
		pins := make([]int, 0, len(toks))
		for _, tok := range toks {
			p, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("patoh: edge %d: bad pin %q", e, tok)
			}
			p -= base
			if p < 0 || p >= numVertices {
				return nil, fmt.Errorf("patoh: edge %d: pin %d out of range", e, p+base)
			}
			pins = append(pins, p)
		}
		pinCount += len(pins)
		b.AddWeightedEdge(weight, pins...)
	}
	if pinCount != numPins {
		return nil, fmt.Errorf("patoh: header promises %d pins, read %d", numPins, pinCount)
	}
	return b.Build(), nil
}

// WritePaToH serialises h in PaToH format (base 0; scheme 1 when edge
// weights are present).
func WritePaToH(w io.Writer, h *Hypergraph) error {
	bw := bufio.NewWriter(w)
	scheme := 0
	if h.HasEdgeWeights() {
		scheme = 1
	}
	fmt.Fprintf(bw, "0 %d %d %d %d\n", h.NumVertices(), h.NumEdges(), h.NumPins(), scheme)
	for e := 0; e < h.NumEdges(); e++ {
		if scheme == 1 {
			fmt.Fprintf(bw, "%d", h.EdgeWeight(e))
			for _, v := range h.Pins(e) {
				fmt.Fprintf(bw, " %d", v)
			}
		} else {
			for i, v := range h.Pins(e) {
				if i > 0 {
					bw.WriteByte(' ')
				}
				fmt.Fprintf(bw, "%d", v)
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
