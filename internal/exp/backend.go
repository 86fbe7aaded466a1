package exp

import (
	"errors"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// Backend executes one simulation somewhere other than the calling
// process. When Options.Backend is set, the Runner consults it on every
// memo-and-cache miss instead of simulating inline: key is the run's
// content address (Runner.RunKey), and cfg/spec/opts are everything a
// remote executor needs to reproduce the simulation bit-for-bit.
//
// The contract mirrors the local path exactly:
//
//   - a nil error means res is the deterministic result of simulating
//     (cfg, spec) at opts — the Runner memoizes it, writes it through
//     Options.Cache, and callers cannot tell it from a local run;
//   - ErrBackendUnavailable means the backend currently has nowhere to
//     run (e.g. a sweep fabric with no registered workers); the Runner
//     falls back to simulating locally, preserving availability;
//   - any other error is treated like a failed simulation: the Runner
//     panics with it, the panic is memoized per key exactly as a local
//     simulation panic would be, and job-level recover paths (the
//     numagpud worker pool, cmd/numagpu's experiment loop) convert it
//     into a failure report.
//
// Implementations must be safe for concurrent use; RunAll issues up to
// Options.Parallelism Execute calls at a time. The implementation in
// this repository is the numagpud coordinator's sweep-fabric dispatcher
// (internal/service), which leases each run to a worker process over
// HTTP.
type Backend interface {
	Execute(key string, cfg arch.Config, spec workload.Spec, opts workload.Options) (core.Result, error)
}

// ErrBackendUnavailable signals that a Backend cannot currently place
// the run anywhere; the Runner responds by simulating locally instead
// of failing the run. Backends must wrap or return it verbatim
// (errors.Is is used to detect it).
var ErrBackendUnavailable = errors.New("exp: backend unavailable")

// ErrDeadlineExceeded signals that a Backend cancelled the run because
// its job-level deadline passed before the run was placed. Unlike other
// backend errors it is transient by construction — the same run
// resubmitted without a deadline (or with a later one) would succeed —
// so the Runner re-raises it to the caller but does NOT leave it
// memoized: a later Run of the same key starts fresh instead of
// replaying the stale cancellation.
var ErrDeadlineExceeded = errors.New("exp: deadline exceeded")
