// Package client is a small Go client for the hyperpraw serving tier. It
// speaks the JSON API defined by the hyperpraw facade's serving types and
// works against either tier: a single hpserve backend (cmd/hpserve) or an
// hpgate gateway fronting many of them (cmd/hpgate) — the gateway exposes
// the same API plus transparent routing and failover.
//
//	c := client.New("http://localhost:8080", nil)
//	res, err := c.Partition(ctx, hyperpraw.PartitionRequest{
//	    Algorithm: "aware",
//	    Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 64},
//	    Instance:  &hyperpraw.InstanceSpec{Name: "sparsine", Scale: 0.01},
//	})
//
// Beyond submit/poll/result the client supports batch submission
// (SubmitBatch), live per-iteration progress over SSE (StreamProgress),
// and a retry policy (Retry) for flaky links.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"hyperpraw"
	"hyperpraw/internal/telemetry"
)

// ErrNotDone is returned by Result while the job is still queued or
// running.
var ErrNotDone = errors.New("client: job not finished")

// ErrStreamEnded is returned by StreamProgress when the event stream
// closes before the job's final event arrives — typically the server going
// away mid-job. Reconnect (possibly elsewhere) with the last seen sequence
// number to resume.
var ErrStreamEnded = errors.New("client: event stream ended before the job finished")

// APIError is a non-2xx response from the server, carrying the HTTP status
// code so callers (the hpgate gateway in particular) can distinguish
// retryable server-side failures from request errors.
type APIError struct {
	StatusCode int
	Message    string
	// Code is the machine-readable error code from the server's envelope
	// (the hyperpraw.ErrCode catalog: "not_found", "overloaded",
	// "graph_referenced", …). Empty when talking to a pre-envelope server,
	// so callers should treat it as a refinement of StatusCode, not a
	// replacement.
	Code string
	// Trace is the failed request's X-Hyperpraw-Trace ID as echoed in the
	// envelope, for correlating a client-side failure with server logs.
	Trace string
	// RetryAfter is the response's Retry-After header in seconds (0 when
	// absent). Overloaded servers attach it to 429/503 rejections; the
	// retry policy and the gateway's shed path honor it.
	RetryAfter int
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("client: %d %s (%s): %s", e.StatusCode, http.StatusText(e.StatusCode), e.Code, e.Message)
	}
	return fmt.Sprintf("client: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// RetryPolicy tunes the client's transparent retries. Retries apply to GET
// requests failing with transport errors or 429/502/503/504, and to any
// method whose connection could not be established at all (a dial error
// means the request never reached a server, so resending cannot duplicate
// work). Waits use full jitter — uniform in [0, min(MaxBackoff,
// Backoff·2^attempt)] — so a fleet of rejected clients does not reconverge
// on the server in lockstep; a Retry-After hint from the server overrides
// the computed wait entirely.
type RetryPolicy struct {
	// Attempts is the total number of tries (default 1: no retry).
	Attempts int
	// Backoff is the base of the exponential wait schedule (default
	// 100ms).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 5s).
	MaxBackoff time.Duration
	// RetryRejected opts submits into retrying 429 and 503 rejections. A
	// rejection with either status is issued before a job is created, so
	// resending cannot duplicate work — but only the hyperpraw tiers
	// guarantee that, hence opt-in rather than default.
	RetryRejected bool
}

// Client talks to one hpserve or hpgate instance.
type Client struct {
	base string
	hc   *http.Client
	// Poll is the interval Wait and Partition use between status checks
	// (default 50ms).
	Poll time.Duration
	// Retry is the transparent retry policy; the zero value disables
	// retries.
	Retry RetryPolicy
}

// New returns a Client for the server at baseURL (e.g.
// "http://localhost:8080"). A nil httpClient selects http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: httpClient, Poll: 50 * time.Millisecond}
}

// Submit enqueues a partition job and returns its initial JobInfo.
func (c *Client) Submit(ctx context.Context, req hyperpraw.PartitionRequest) (hyperpraw.JobInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return hyperpraw.JobInfo{}, err
	}
	var info hyperpraw.JobInfo
	err = c.do(ctx, http.MethodPost, "/v1/partition", body, "application/json", http.StatusAccepted, &info)
	return info, err
}

// SubmitBatch submits many jobs in one POST /v1/partition/batch round
// trip. The response answers each request entry independently: check
// BatchItem.Error per entry — a partially rejected batch is not an error
// at this level.
func (c *Client) SubmitBatch(ctx context.Context, reqs []hyperpraw.PartitionRequest) (hyperpraw.BatchResponse, error) {
	body, err := json.Marshal(hyperpraw.BatchRequest{Jobs: reqs})
	if err != nil {
		return hyperpraw.BatchResponse{}, err
	}
	var resp hyperpraw.BatchResponse
	err = c.do(ctx, http.MethodPost, "/v1/partition/batch", body, "application/json", http.StatusAccepted, &resp)
	return resp, err
}

// SubmitHypergraph serialises h inline (hMetis text) and submits it.
func (c *Client) SubmitHypergraph(ctx context.Context, h *hyperpraw.Hypergraph, algorithm string, machine hyperpraw.MachineSpec, opts *hyperpraw.ServeOptions) (hyperpraw.JobInfo, error) {
	text, err := hyperpraw.MarshalHMetis(h)
	if err != nil {
		return hyperpraw.JobInfo{}, err
	}
	return c.Submit(ctx, hyperpraw.PartitionRequest{
		Algorithm: algorithm,
		Machine:   machine,
		HMetis:    text,
		Options:   opts,
	})
}

// Job fetches the current status of id.
func (c *Client) Job(ctx context.Context, id string) (hyperpraw.JobInfo, error) {
	var info hyperpraw.JobInfo
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, "", http.StatusOK, &info)
	return info, err
}

// Jobs lists every job the server knows about. For bounded pages use
// ListJobs.
func (c *Client) Jobs(ctx context.Context) ([]hyperpraw.JobInfo, error) {
	var out struct {
		Jobs []hyperpraw.JobInfo `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, "", http.StatusOK, &out)
	return out.Jobs, err
}

// JobsQuery selects one page of GET /v1/jobs: Limit bounds the page size
// (0 = everything), After resumes past a previously returned
// JobsPage.NextAfter cursor, and State filters to one lifecycle state.
type JobsQuery struct {
	Limit int
	After string
	State hyperpraw.JobStatus
}

// ListJobs fetches one page of the server's job table. Page through the
// whole table by passing each response's NextAfter back as q.After until
// it comes back empty.
func (c *Client) ListJobs(ctx context.Context, q JobsQuery) (hyperpraw.JobsPage, error) {
	params := url.Values{}
	if q.Limit > 0 {
		params.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.After != "" {
		params.Set("after", q.After)
	}
	if q.State != "" {
		params.Set("state", string(q.State))
	}
	path := "/v1/jobs"
	if len(params) > 0 {
		path += "?" + params.Encode()
	}
	var page hyperpraw.JobsPage
	err := c.do(ctx, http.MethodGet, path, nil, "", http.StatusOK, &page)
	return page, err
}

// Result fetches the finished payload for id. It returns ErrNotDone while
// the job is queued or running.
func (c *Client) Result(ctx context.Context, id string) (*hyperpraw.JobResult, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var res hyperpraw.JobResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return nil, err
		}
		return &res, nil
	case http.StatusAccepted:
		return nil, ErrNotDone
	default:
		return nil, apiError(resp)
	}
}

// Wait polls until the job finishes, then returns its result.
func (c *Client) Wait(ctx context.Context, id string) (*hyperpraw.JobResult, error) {
	poll := c.Poll
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		res, err := c.Result(ctx, id)
		if !errors.Is(err, ErrNotDone) {
			return res, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Partition submits req and waits for its result — the synchronous
// convenience wrapper.
func (c *Client) Partition(ctx context.Context, req hyperpraw.PartitionRequest) (*hyperpraw.JobResult, error) {
	info, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, info.ID)
}

// StreamProgress subscribes to job id's per-iteration progress over SSE
// (GET /v1/jobs/{id}/events), calling fn for every event including the
// final one. after resumes the stream past a previously seen sequence
// number (0 from the start). It returns nil once the final event has been
// delivered, fn's error if fn rejects an event, and ErrStreamEnded when
// the stream closes early — reconnect with the last seen Seq to resume.
func (c *Client) StreamProgress(ctx context.Context, id string, after int, fn func(hyperpraw.ProgressEvent) error) error {
	path := fmt.Sprintf("/v1/jobs/%s/events?after=%d", id, after)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	telemetry.SetTraceHeader(ctx, req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}

	// Frames are small: start at bufio's 4 KiB default and grow only for
	// a longer line, up to 1 MiB.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		if line == "" { // frame boundary
			if len(data) == 0 {
				continue
			}
			var ev hyperpraw.ProgressEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("client: bad event payload: %w", err)
			}
			data = data[:0]
			if err := fn(ev); err != nil {
				return err
			}
			if ev.Final {
				return nil
			}
			continue
		}
		if v, ok := strings.CutPrefix(line, "data:"); ok {
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, strings.TrimPrefix(v, " ")...)
		}
		// id:/event:/comment lines carry nothing the JSON doesn't.
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("client: reading event stream: %w", err)
	}
	return ErrStreamEnded
}

// NotRecoverable reports whether err is a gateway's verdict (HTTP 410
// Gone) that a job lost its backend and can no longer fail over — the
// retained wire request was evicted by the gateway's retention cap. The
// only remedy is resubmitting the original request.
func NotRecoverable(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusGone
}

// Health fetches the server's health snapshot (hpserve form).
func (c *Client) Health(ctx context.Context) (hyperpraw.ServeHealth, error) {
	var h hyperpraw.ServeHealth
	err := c.do(ctx, http.MethodGet, "/healthz", nil, "", http.StatusOK, &h)
	return h, err
}

// GatewayHealth fetches the health snapshot of an hpgate gateway,
// including per-backend status.
func (c *Client) GatewayHealth(ctx context.Context) (hyperpraw.GatewayHealth, error) {
	var h hyperpraw.GatewayHealth
	err := c.do(ctx, http.MethodGet, "/healthz", nil, "", http.StatusOK, &h)
	return h, err
}

// RegisterMember announces a backend to an hpgate gateway's member table
// (or renews its lease — the heartbeat is the same request repeated).
func (c *Client) RegisterMember(ctx context.Context, spec hyperpraw.MemberSpec) (hyperpraw.MemberInfo, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return hyperpraw.MemberInfo{}, err
	}
	var info hyperpraw.MemberInfo
	err = c.do(ctx, http.MethodPost, "/v1/cluster/members", body, "application/json", http.StatusOK, &info)
	return info, err
}

// DeregisterMember removes a backend from an hpgate gateway's member
// table; the gateway synchronously drains the member's jobs to its
// rendezvous peers before the call returns.
func (c *Client) DeregisterMember(ctx context.Context, memberURL string) error {
	return c.do(ctx, http.MethodDelete, "/v1/cluster/members/"+url.PathEscape(memberURL), nil, "", http.StatusNoContent, nil)
}

// Members fetches an hpgate gateway's cluster member table.
func (c *Client) Members(ctx context.Context) (hyperpraw.MemberList, error) {
	var list hyperpraw.MemberList
	err := c.do(ctx, http.MethodGet, "/v1/cluster/members", nil, "", http.StatusOK, &list)
	return list, err
}

// roundTrip issues one request under the retry policy. body is a byte
// slice (not a Reader) so retries can resend it.
func (c *Client) roundTrip(ctx context.Context, method, path string, body []byte, contentType string) (*http.Response, error) {
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		// Propagate the caller's trace ID so one submission is followable
		// across tiers (gateway → backend) in logs and JobInfo.
		telemetry.SetTraceHeader(ctx, req.Header)
		resp, err := c.hc.Do(req)
		switch {
		case err == nil && !c.retryableStatus(method, resp.StatusCode):
			return resp, nil
		case err == nil:
			lastErr = apiError(resp)
			resp.Body.Close()
		case retryableTransport(method, err):
			lastErr = err
		default:
			return nil, err
		}
		if attempt >= attempts {
			return nil, lastErr
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.retryWait(attempt, lastErr)):
		}
	}
}

// retryWait computes the wait before retry number attempt+1. A server
// Retry-After hint wins outright — the server knows its queue better than
// any client-side schedule; otherwise full jitter over a capped
// exponential.
func (c *Client) retryWait(attempt int, lastErr error) time.Duration {
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.RetryAfter > 0 {
		return time.Duration(apiErr.RetryAfter) * time.Second
	}
	base := c.Retry.Backoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxWait := c.Retry.MaxBackoff
	if maxWait <= 0 {
		maxWait = 5 * time.Second
	}
	ceil := base << (attempt - 1)
	if attempt > 30 || ceil <= 0 || ceil > maxWait { // shift overflow guard
		ceil = maxWait
	}
	return time.Duration(rand.Int63n(int64(ceil) + 1))
}

// retryableTransport reports whether a transport-level error is safe to
// retry for the method: any error on a GET, but only dial errors (the
// request never left the client) on mutating methods.
func retryableTransport(method string, err error) bool {
	if method == http.MethodGet {
		return true
	}
	var opErr *net.OpError
	return errors.As(err, &opErr) && opErr.Op == "dial"
}

// retryableStatus reports whether an HTTP status is worth retrying for the
// method: transient server-side statuses on any GET, and — only with
// RetryRejected set — the admission rejections (429, 503) on mutating
// methods, which both tiers issue strictly before creating a job.
func (c *Client) retryableStatus(method string, status int) bool {
	if method == http.MethodGet {
		switch status {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	if !c.Retry.RetryRejected {
		return false
	}
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string, wantStatus int, out any) error {
	resp, err := c.roundTrip(ctx, method, path, body, contentType)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError decodes a non-2xx response body into an APIError. It accepts
// both error shapes the tiers have spoken: the current structured envelope
// {"error":{"code":…,"message":…,"retry_after_ms":…,"trace":…}} and the
// legacy {"error":"<string>"} — so a new client keeps working against an
// old server and vice versa.
func apiError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(data))}
	var envelope struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(data, &envelope) == nil && len(envelope.Error) > 0 {
		var detail hyperpraw.ErrorDetail
		var legacy string
		switch {
		case json.Unmarshal(envelope.Error, &detail) == nil && detail.Message != "":
			e.Message = detail.Message
			e.Code = detail.Code
			e.Trace = detail.Trace
			if detail.RetryAfterMS > 0 {
				e.RetryAfter = int((detail.RetryAfterMS + 999) / 1000)
			}
		case json.Unmarshal(envelope.Error, &legacy) == nil && legacy != "":
			e.Message = legacy
		}
	}
	// The Retry-After header is authoritative when present; the envelope
	// hint only fills in for proxies that strip headers.
	if retryAfter, _ := strconv.Atoi(resp.Header.Get("Retry-After")); retryAfter > 0 {
		e.RetryAfter = retryAfter
	}
	return e
}
