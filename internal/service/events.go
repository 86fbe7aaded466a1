package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/exp"
)

// Event types on a job's event log (GET /v1/jobs/{id}/events).
const (
	// EventState marks a lifecycle transition; State carries the new
	// JobState. Every job's log begins with state=queued and ends with
	// state=done or state=failed.
	EventState = "state"
	// EventRunDone reports one completed run of a sweep or experiment;
	// Run carries the details.
	EventRunDone = "run_done"
	// EventProgress is a human-readable note (e.g. the sweep's delta
	// plan summary); Message carries it.
	EventProgress = "progress"
	// EventError reports the failure message of a job that ended in
	// state=failed; Message carries it.
	EventError = "error"
)

// JobEvent is one entry of a job's append-only event log. IDs are dense
// and 1-based within the job, which is what makes SSE resume exact: a
// client reconnecting with Last-Event-ID: N receives event N+1 onward,
// no gaps, no duplicates.
//
// Events are observability, not state: they are not journaled, so a
// coordinator restart resets a replayed job's log (like result bytes,
// which are also rebuilt by re-execution — see docs/ROBUSTNESS.md). The
// run_done events of the re-execution carry the same content-addressed
// run references, served from the disk cache rather than re-simulated.
type JobEvent struct {
	ID      int      `json:"id"`
	Type    string   `json:"type"`
	State   JobState `json:"state,omitempty"`
	Message string   `json:"message,omitempty"`
	Run     *RunDone `json:"run,omitempty"`
}

// RunDone is the payload of a run_done event: one completed run,
// identified by runID, the content address of its RunKey, so a streamed
// completion can be correlated with cache entries and with the same run
// in other jobs. Source says how the
// result was obtained (simulated, cached, remote, coalesced) — an SSE
// replay after reconnect re-sends the same reference, never a
// re-simulation.
type RunDone struct {
	Run      string        `json:"run"`
	Workload string        `json:"workload"`
	Source   exp.RunSource `json:"source"`
	Cycles   uint64        `json:"cycles"`
	Done     int           `json:"done"`
	Total    int           `json:"total,omitempty"`
}

// runID is the URL-safe content address of a RunKey (RunKeys themselves
// contain '/' and '|'): the hex SHA-256 of the key.
func runID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// appendEventLocked stamps the next dense ID on ev, appends it to the
// job's log, and wakes every streaming reader. Caller holds s.mu.
func (s *Server) appendEventLocked(j *job, ev JobEvent) {
	ev.ID = len(j.events) + 1
	j.events = append(j.events, ev)
	s.eventCond.Broadcast()
}

// appendEvent is appendEventLocked for callers not holding s.mu.
func (s *Server) appendEvent(j *job, ev JobEvent) {
	s.mu.Lock()
	s.appendEventLocked(j, ev)
	s.mu.Unlock()
}

// handleJobEvents streams a job's event log as Server-Sent Events: one
// frame per JobEvent (id: the dense event ID, event: the type, data:
// the JSON body). The stream replays the log from the beginning — or
// from the event after Last-Event-ID on reconnect — then follows live
// until the job reaches a terminal state and the log is drained, at
// which point the stream ends cleanly. Reads concurrent with execution
// see every event exactly once.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeAPIError(w, http.StatusNotFound, codeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	sent := 0
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		n, err := strconv.Atoi(lid)
		if err != nil || n < 0 {
			writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "bad Last-Event-ID %q", lid)
			return
		}
		sent = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeAPIError(w, http.StatusInternalServerError, codeInvalidArgument, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// A disconnected client must not leave this handler parked on the
	// cond forever: wake every waiter when the request context ends and
	// let the loop notice its own context died.
	stop := context.AfterFunc(r.Context(), func() {
		s.mu.Lock()
		s.eventCond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	for {
		s.mu.Lock()
		for len(j.events) <= sent && !terminal(j.state) && !s.closing && r.Context().Err() == nil {
			s.eventCond.Wait()
		}
		batch := append([]JobEvent(nil), j.events[sent:]...)
		done := terminal(j.state) || s.closing
		s.mu.Unlock()

		sent += len(batch)
		for _, ev := range batch {
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data)
		}
		if len(batch) > 0 {
			flusher.Flush()
		}
		if r.Context().Err() != nil || done {
			return
		}
	}
}

// terminal reports whether a job state is final.
func terminal(st JobState) bool { return st == JobDone || st == JobFailed }
