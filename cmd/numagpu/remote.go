package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
)

// unreachableWindow is how long -remote rides out a coordinator it
// cannot reach before failing the experiment: long enough for a
// coordinator restart that replays its journal (the job keeps its ID,
// so the event stream resumes), short enough that a coordinator gone
// for good does not hang the command.
var unreachableWindow = 30 * time.Second

// followLine is the -follow format: one line per completed run.
const followLine = "done %-28s %-10s %12d cycles\n"

// remote runs experiments as jobs on a numagpud coordinator through the
// job API. The coordinator executes each one at the client's harness
// scale, on its memo, disk cache and worker fleet; the client renders
// the returned result exactly as it renders a local one.
type remote struct {
	cl     *service.Client
	scale  service.ExperimentRequest
	follow io.Writer // receives followLine per run_done event; nil without -follow

	mu        sync.Mutex
	downSince time.Time               // zero while the coordinator answers
	cancel    context.CancelCauseFunc // ends the current experiment's stream
}

func newRemote(url string, scale service.ExperimentRequest, follow io.Writer) *remote {
	r := &remote{scale: scale, follow: follow}
	r.cl = &service.Client{BaseURL: url, HTTPClient: &http.Client{Transport: r}}
	return r
}

// run submits one experiment, follows its event stream to the end, and
// fetches the finished result. A shed or refused submission fails at
// once; a coordinator that stops answering fails the run after
// unreachableWindow.
func (r *remote) run(name string) (exp.Result, error) {
	st, err := r.cl.SubmitExperiment(name, r.scale)
	if err != nil {
		return exp.Result{}, r.submitError(err)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	r.mu.Lock()
	r.cancel = cancel
	r.mu.Unlock()
	err = r.cl.StreamJob(ctx, st.ID, func(ev service.JobEvent) error {
		if ev.Type == service.EventRunDone && r.follow != nil {
			fmt.Fprintf(r.follow, followLine, ev.Run.Workload, ev.Run.Source, ev.Run.Cycles)
		}
		return nil
	})
	if cause := context.Cause(ctx); cause != nil {
		return exp.Result{}, cause
	}
	if err != nil {
		return exp.Result{}, err
	}
	nr, err := r.cl.ExperimentResult(st.ID)
	if err != nil {
		return exp.Result{}, err
	}
	return exp.Result{Table: nr.Table, Summary: nr.Summary}, nil
}

// submitError words a failed submission: shed load (429) and a
// draining coordinator (503) carry the server's retry hint; a transport
// failure means the coordinator is unreachable.
func (r *remote) submitError(err error) error {
	var ae *service.Error
	if !errors.As(err, &ae) {
		return fmt.Errorf("coordinator %s unreachable: %w", r.cl.BaseURL, err)
	}
	if ae.Status != http.StatusTooManyRequests && ae.Status != http.StatusServiceUnavailable {
		return err
	}
	if ae.RetryAfter > 0 {
		return fmt.Errorf("submission refused: %w; retry after %s", err, ae.RetryAfter)
	}
	return fmt.Errorf("submission refused: %w", err)
}

// RoundTrip makes remote the client's transport. It times how long the
// coordinator has gone without answering — the event stream's
// reconnects keep asking — and once that reaches unreachableWindow it
// ends the current experiment's stream.
func (r *remote) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err == nil:
		r.downSince = time.Time{}
	case r.downSince.IsZero():
		r.downSince = time.Now()
	case time.Since(r.downSince) >= unreachableWindow && r.cancel != nil:
		r.cancel(fmt.Errorf("coordinator %s unreachable for %s: %w", r.cl.BaseURL, unreachableWindow, err))
	}
	return resp, err
}
