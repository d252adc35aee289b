package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"hyperpraw"
)

// This file is the client side of the hypergraph resource API
// (/v1/hypergraphs): a graph is uploaded once — resumably, in chunks —
// and then referenced by ID from any number of partition requests, so
// the document never travels with a job again.
//
//	info, err := c.UploadHypergraph(ctx, file, "my-graph", 8<<20)
//	res, err := c.Partition(ctx, hyperpraw.PartitionRequest{
//	    Algorithm:    "aware",
//	    Machine:      hyperpraw.MachineSpec{Kind: "archer", Cores: 64},
//	    HypergraphID: info.ID,
//	})

// DefaultPartSize is the chunk size UploadHypergraph uses when the caller
// passes partSize <= 0: big enough to amortise per-part overhead, small
// enough that a torn transfer re-sends little.
const DefaultPartSize int64 = 8 << 20

// CreateHypergraphUpload opens a resumable upload session; name is a
// human-readable label carried on the committed resource.
func (c *Client) CreateHypergraphUpload(ctx context.Context, name string) (hyperpraw.HypergraphInfo, error) {
	body, err := json.Marshal(hyperpraw.CreateHypergraphRequest{Name: name})
	if err != nil {
		return hyperpraw.HypergraphInfo{}, err
	}
	var info hyperpraw.HypergraphInfo
	err = c.do(ctx, http.MethodPost, "/v1/hypergraphs", body, "application/json", http.StatusCreated, &info)
	return info, err
}

// PutHypergraphPart uploads (or re-uploads — the PUT is idempotent) part
// n of an open session. Parts may be sent in any order.
func (c *Client) PutHypergraphPart(ctx context.Context, id string, n int, part []byte) (hyperpraw.HypergraphInfo, error) {
	var info hyperpraw.HypergraphInfo
	path := fmt.Sprintf("/v1/hypergraphs/%s/parts/%d", id, n)
	err := c.do(ctx, http.MethodPut, path, part, "application/octet-stream", http.StatusOK, &info)
	return info, err
}

// CommitHypergraph closes the session and parses its parts into a
// committed hypergraph, returning the canonical resource — its ID is the
// graph's fingerprint, shared with any identical upload. A commit refused
// for missing parts (code "upload_incomplete") leaves the session open:
// re-PUT what is missing and commit again.
func (c *Client) CommitHypergraph(ctx context.Context, id string) (hyperpraw.HypergraphInfo, error) {
	var info hyperpraw.HypergraphInfo
	err := c.do(ctx, http.MethodPost, "/v1/hypergraphs/"+id+"/commit", nil, "", http.StatusCreated, &info)
	return info, err
}

// UploadHypergraph streams an hMetis document to the server as a chunked
// resumable upload — create session, PUT parts of partSize bytes (<= 0
// selects DefaultPartSize), commit — and returns the committed resource.
// Only one part is buffered in client memory at a time, so the document
// size is bounded by the server's limits, not this process's heap. A
// source that reports its remaining length (bytes.Reader, strings.Reader,
// bytes.Buffer) caps the part buffer at that length.
func (c *Client) UploadHypergraph(ctx context.Context, r io.Reader, name string, partSize int64) (hyperpraw.HypergraphInfo, error) {
	if partSize <= 0 {
		partSize = DefaultPartSize
	}
	if l, ok := r.(interface{ Len() int }); ok {
		// At least one byte: io.ReadFull into an empty buffer returns
		// (0, nil) and the part loop would never end.
		partSize = min(partSize, max(int64(l.Len()), 1))
	}
	up, err := c.CreateHypergraphUpload(ctx, name)
	if err != nil {
		return hyperpraw.HypergraphInfo{}, err
	}
	buf := make([]byte, partSize)
	for n := 0; ; n++ {
		read, rerr := io.ReadFull(r, buf)
		if read > 0 {
			if _, err := c.PutHypergraphPart(ctx, up.ID, n, buf[:read]); err != nil {
				return hyperpraw.HypergraphInfo{}, fmt.Errorf("client: uploading part %d: %w", n, err)
			}
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			return hyperpraw.HypergraphInfo{}, fmt.Errorf("client: reading upload source: %w", rerr)
		}
	}
	return c.CommitHypergraph(ctx, up.ID)
}

// IngestHypergraph uploads a hypergraph in one shot (no session) and
// returns the committed resource. The body is an hMetis document or a
// serialised arena stream (the "HPGARN01" framing graphstore.Arena.Raw
// produces, which the server interns without reparsing — how the hpgate
// gateway replicates graphs to backends). The body is sent as is, not
// copied. Convenient for graphs that comfortably fit one request; larger
// graphs should go through UploadHypergraph.
func (c *Client) IngestHypergraph(ctx context.Context, body []byte, name string) (hyperpraw.HypergraphInfo, error) {
	path := "/v1/hypergraphs"
	if name != "" {
		path += "?name=" + url.QueryEscape(name)
	}
	var info hyperpraw.HypergraphInfo
	err := c.do(ctx, http.MethodPost, path, body, "text/plain", http.StatusCreated, &info)
	return info, err
}

// Hypergraph fetches one resource's info — a committed arena or an
// in-flight upload session.
func (c *Client) Hypergraph(ctx context.Context, id string) (hyperpraw.HypergraphInfo, error) {
	var info hyperpraw.HypergraphInfo
	err := c.do(ctx, http.MethodGet, "/v1/hypergraphs/"+id, nil, "", http.StatusOK, &info)
	return info, err
}

// Hypergraphs lists every hypergraph resource the server holds.
func (c *Client) Hypergraphs(ctx context.Context) ([]hyperpraw.HypergraphInfo, error) {
	var out hyperpraw.HypergraphList
	err := c.do(ctx, http.MethodGet, "/v1/hypergraphs", nil, "", http.StatusOK, &out)
	return out.Hypergraphs, err
}

// DeleteHypergraph removes a committed hypergraph (or aborts an upload
// session). A graph still referenced by queued or running jobs is refused
// with a 409 whose APIError.Code is "graph_referenced".
func (c *Client) DeleteHypergraph(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/hypergraphs/"+id, nil, "", http.StatusNoContent, nil)
}
