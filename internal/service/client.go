package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
)

// Client is a minimal typed client for a numagpud server. The zero
// value is not usable; construct with NewClient.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the server at base.
func NewClient(base string) *Client {
	return &Client{BaseURL: base, HTTPClient: http.DefaultClient}
}

// Error is the typed form of a non-2xx numagpud reply, decoded from
// the {"error": {"code", "message", "retry_after_ms"}} envelope every
// endpoint speaks. Code is the stable machine-readable string clients
// should switch on (see errors.go); Status is the HTTP status;
// RetryAfter carries the server's backoff hint (from the body's
// retry_after_ms, falling back to the Retry-After header; 0 when
// absent). Every Client method returns a *Error for API failures:
//
//	var apiErr *service.Error
//	if errors.As(err, &apiErr) && apiErr.Code == "queue_full" { ... }
type Error struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("numagpud: HTTP %d: %s", e.Status, e.Message)
}

// do issues one JSON round trip. in (when non-nil) is marshaled as the
// request body; a 2xx response body is decoded into out (when non-nil).
func (c *Client) do(method, path string, in, out any) error {
	body, err := c.raw(method, path, in)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// raw issues the request and returns the verbatim 2xx response body.
func (c *Client) raw(method, path string, in any) ([]byte, error) {
	var rd io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, decodeError(resp.StatusCode, resp.Header, body)
	}
	return body, nil
}

// decodeError builds the typed *Error from a non-2xx reply. It decodes
// the structured envelope, falling back to the pre-envelope
// {"error": "..."} string shape (an older daemon) and finally to the
// raw body.
func decodeError(status int, hdr http.Header, body []byte) *Error {
	ae := &Error{Status: status, Message: string(body)}
	var env struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && len(env.Error) > 0 {
		var obj APIError
		var legacy string
		switch {
		case json.Unmarshal(env.Error, &obj) == nil && obj.Message != "":
			ae.Code = obj.Code
			ae.Message = obj.Message
			ae.RetryAfter = time.Duration(obj.RetryAfterMs) * time.Millisecond
		case json.Unmarshal(env.Error, &legacy) == nil && legacy != "":
			ae.Message = legacy
		}
	}
	if ae.RetryAfter == 0 {
		if ra := hdr.Get("Retry-After"); ra != "" {
			if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs > 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
	}
	return ae
}

// Experiments lists the experiments the server can run.
func (c *Client) Experiments() ([]ExperimentInfo, error) {
	var out []ExperimentInfo
	err := c.do("GET", "/v1/experiments", nil, &out)
	return out, err
}

// SubmitExperiment enqueues one experiment by registry name and
// returns the queued job. An optional scale names the harness to run it
// at (see ExperimentRequest); without one the daemon's own options
// apply.
func (c *Client) SubmitExperiment(name string, scale ...ExperimentRequest) (JobStatus, error) {
	var in any
	switch len(scale) {
	case 0:
	case 1:
		in = scale[0]
	default:
		return JobStatus{}, errors.New("service: SubmitExperiment takes at most one scale")
	}
	var out JobStatus
	err := c.do("POST", "/v1/experiments/"+name, in, &out)
	return out, err
}

// SubmitSweep enqueues a configuration sweep and returns the queued
// job.
func (c *Client) SubmitSweep(req SweepRequest) (JobStatus, error) {
	var out JobStatus
	err := c.do("POST", "/v1/sweeps", req, &out)
	return out, err
}

// Job fetches the current status of a job.
func (c *Client) Job(id string) (JobStatus, error) {
	var out JobStatus
	err := c.do("GET", "/v1/jobs/"+id, nil, &out)
	return out, err
}

// JobsQuery selects one page of the jobs listing. The zero value asks
// for the first page at the server's default size.
type JobsQuery struct {
	// Limit caps the page size (server default when 0).
	Limit int
	// After is the cursor from the previous page's Next field.
	After string
}

// Jobs fetches one page of jobs in submission order. Iterate by
// passing each page's Next as the following query's After until Next
// comes back empty.
func (c *Client) Jobs(q JobsQuery) (JobsPage, error) {
	v := url.Values{}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.After != "" {
		v.Set("after", q.After)
	}
	path := "/v1/jobs"
	if len(v) > 0 {
		path += "?" + v.Encode()
	}
	var out JobsPage
	err := c.do("GET", path, nil, &out)
	return out, err
}

// StreamJob follows a job's typed event stream (SSE), invoking on for
// every event in log order until the job reaches a terminal state, the
// context ends, or the callback returns an error (which aborts the
// stream and is returned). Transport interruptions are resumed
// transparently with Last-Event-ID, so the callback sees every event
// exactly once — replayed run_done events carry the same
// content-addressed run references, never a re-simulation. API
// refusals (e.g. an unknown job) return a *Error without retrying.
func (c *Client) StreamJob(ctx context.Context, id string, on func(JobEvent) error) error {
	last := 0
	for {
		terminalSeen, err := c.streamEvents(ctx, id, &last, on)
		if terminalSeen || ctx.Err() != nil {
			return err
		}
		if err != nil {
			var ae *Error
			if errors.As(err, &ae) {
				return err
			}
			var cbErr *callbackError
			if errors.As(err, &cbErr) {
				return cbErr.err
			}
		} else {
			// Clean end of stream without a terminal event: the server
			// was draining. If the job is in fact finished, we are done;
			// otherwise fall through to reconnect.
			if st, serr := c.Job(id); serr == nil && (st.State == JobDone || st.State == JobFailed) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// callbackError marks a StreamJob callback failure so the resume loop
// can tell it apart from a transport interruption.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }

// streamEvents runs one SSE connection, delivering events after *last
// and advancing it. It reports whether a terminal state event arrived.
func (c *Client) streamEvents(ctx context.Context, id string, last *int, on func(JobEvent) error) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if *last > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*last))
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return false, decodeError(resp.StatusCode, resp.Header, body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = []byte(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		case line == "" && len(data) > 0:
			var ev JobEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return false, err
			}
			data = nil
			if ev.ID <= *last {
				continue // duplicate after a racy resume
			}
			*last = ev.ID
			if err := on(ev); err != nil {
				return false, &callbackError{err}
			}
			if ev.Type == EventState && (ev.State == JobDone || ev.State == JobFailed) {
				return true, nil
			}
		}
	}
	return false, sc.Err()
}

// Wait polls a job until it reaches a terminal state (done or failed),
// the poll interval elapsing between attempts. A failed job is
// returned alongside an error carrying its message.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Job(id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case JobDone:
			return st, nil
		case JobFailed:
			return st, fmt.Errorf("numagpud: job %s failed: %s", id, st.Error)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Result returns the raw, deterministic result JSON of a finished job.
func (c *Client) Result(id string) ([]byte, error) {
	return c.raw("GET", "/v1/jobs/"+id+"/result", nil)
}

// ExperimentResult is the decoded result payload of an experiment job:
// the exact type the server marshals, so the two cannot drift.
type ExperimentResult = exp.NamedResult

// ExperimentResult decodes a finished experiment job's result.
func (c *Client) ExperimentResult(id string) (ExperimentResult, error) {
	var out ExperimentResult
	b, err := c.Result(id)
	if err != nil {
		return out, err
	}
	err = json.Unmarshal(b, &out)
	return out, err
}

// SweepResult is the decoded result payload of a sweep job: one
// core.Result per requested workload, in request order. Obs is present
// only when the request enabled observability; it is aligned
// index-for-index with Results.
type SweepResult struct {
	Results []core.Result `json:"results"`
	Obs     []*SweepObs   `json:"obs,omitempty"`
}

// SweepResult decodes a finished sweep job's result.
func (c *Client) SweepResult(id string) (SweepResult, error) {
	var out SweepResult
	b, err := c.Result(id)
	if err != nil {
		return out, err
	}
	err = json.Unmarshal(b, &out)
	return out, err
}

// CacheStats fetches the server's cache and run-count statistics.
func (c *Client) CacheStats() (CacheStatus, error) {
	var out CacheStatus
	err := c.do("GET", "/v1/cache", nil, &out)
	return out, err
}

// Metrics fetches the Prometheus text exposition.
func (c *Client) Metrics() (string, error) {
	b, err := c.raw("GET", "/metrics", nil)
	return string(b), err
}
