package service

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// journal is the coordinator's durable state: an append-only,
// checksummed write-ahead log of job submissions, shard grants, and
// shard completions, compacted into an atomically-replaced snapshot
// (temp file + rename, the same discipline as DiskCache). Together with
// the content-addressed DiskCache — which already holds every completed
// result — it is everything a restarted coordinator needs to rebuild
// its job queue and shard table and resume an in-flight sweep with zero
// duplicate simulations.
//
// On-disk layout under the state directory (default: "state" under the
// cache directory):
//
//	snapshot.json   last compacted state, written via temp+rename
//	journal.log     records appended since the snapshot
//
// Each log record is framed as an 8-byte little-endian header — 4-byte
// payload length, 4-byte CRC32 (IEEE) of the payload — followed by the
// JSON payload. Appends are fsynced, so a record either survives a
// kill -9 whole or is a detectable torn tail. Replay applies the
// snapshot, then every record up to the first torn or checksum-failing
// one (anything past a torn record is unordered garbage by definition),
// which recovers exactly the state the last successful append captured.
type journal struct {
	dir string

	mu       sync.Mutex
	f        *os.File
	logBytes int64
	snapSize int64
	replays  uint64 // cumulative restarts that recovered state (persisted)
	closed   bool
}

// journalRecord is one WAL entry. T selects the operation; the other
// fields are per-type payloads.
type journalRecord struct {
	T string `json:"t"` // submit | done | fail | grant | complete | requeue
	// submit
	Job *jobRecord `json:"job,omitempty"`
	// done / fail
	ID string `json:"id,omitempty"`
	// grant / complete / requeue
	Key string `json:"key,omitempty"`
	// grant: owning worker process (stable across re-registrations)
	Proc string `json:"proc,omitempty"`
}

// jobRecord is the durable form of one submitted job.
type jobRecord struct {
	ID         string             `json:"id"`
	Kind       string             `json:"kind"`
	Name       string             `json:"name"`
	Scale      *ExperimentRequest `json:"scale,omitempty"`
	Sweep      json.RawMessage    `json:"sweep,omitempty"`
	Tenant     string             `json:"tenant,omitempty"`
	DeadlineMs int64              `json:"deadline_unix_ms,omitempty"`
}

// grantRecord is one shard lease that was live when the journal state
// was captured: the shard's RunKey and the worker process holding it.
type grantRecord struct {
	Key  string `json:"key"`
	Proc string `json:"proc"`
}

// journalState is the replayed coordinator state: every journaled job
// not yet finished (in submission order) and every granted shard not
// yet completed or re-queued.
type journalState struct {
	Version   int           `json:"version"`
	NextJobID int           `json:"next_job_id"`
	Jobs      []jobRecord   `json:"jobs"`
	Grants    []grantRecord `json:"grants"`
	Replays   uint64        `json:"replays"`
}

// recovered reports whether the state carries anything worth resuming.
func (st *journalState) recovered() bool {
	return len(st.Jobs) > 0 || len(st.Grants) > 0
}

// apply folds one record into the state.
func (st *journalState) apply(rec journalRecord) {
	switch rec.T {
	case "submit":
		if rec.Job != nil {
			st.Jobs = append(st.Jobs, *rec.Job)
			var n int
			if _, err := fmt.Sscanf(rec.Job.ID, "job-%d", &n); err == nil && n > st.NextJobID {
				st.NextJobID = n
			}
		}
	case "done", "fail":
		for i, j := range st.Jobs {
			if j.ID == rec.ID {
				st.Jobs = append(st.Jobs[:i], st.Jobs[i+1:]...)
				break
			}
		}
	case "grant":
		st.dropGrant(rec.Key)
		st.Grants = append(st.Grants, grantRecord{Key: rec.Key, Proc: rec.Proc})
	case "complete", "requeue":
		st.dropGrant(rec.Key)
	}
}

func (st *journalState) dropGrant(key string) {
	for i, g := range st.Grants {
		if g.Key == key {
			st.Grants = append(st.Grants[:i], st.Grants[i+1:]...)
			return
		}
	}
}

const (
	snapshotName = "snapshot.json"
	logName      = "journal.log"
)

// openJournal opens (creating if needed) the journal at dir, replays
// snapshot + log into a journalState, and compacts: the recovered state
// becomes the new snapshot and the log is truncated, so replay cost
// stays proportional to activity since the last restart. The returned
// state is what the coordinator should rebuild from.
func openJournal(dir string) (*journal, *journalState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	j := &journal{dir: dir}
	st := &journalState{Version: 1}

	if b, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		var snap journalState
		// A torn snapshot cannot happen under the temp+rename discipline;
		// a corrupt one (external damage) degrades to an empty state, the
		// same contract as a corrupt DiskCache entry degrading to a miss.
		if json.Unmarshal(b, &snap) == nil && snap.Version == 1 {
			st = &snap
		}
	}
	replayLog(filepath.Join(dir, logName), st)
	j.replays = st.Replays
	if st.recovered() {
		j.replays++
		st.Replays = j.replays
	}

	if err := j.compact(st); err != nil {
		return nil, nil, err
	}
	return j, st, nil
}

// replayLog applies every intact record of the log file to st, stopping
// at the first torn or checksum-failing record.
func replayLog(path string, st *journalState) {
	b, err := os.ReadFile(path)
	if err != nil {
		return
	}
	for len(b) >= 8 {
		n := binary.LittleEndian.Uint32(b[0:4])
		sum := binary.LittleEndian.Uint32(b[4:8])
		if uint64(len(b)) < 8+uint64(n) {
			return // torn tail: the append died mid-write
		}
		payload := b[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return // corrupt record; nothing after it is trustworthy
		}
		var rec journalRecord
		if json.Unmarshal(payload, &rec) == nil {
			st.apply(rec)
		}
		b = b[8+n:]
	}
}

// append journals one record durably (framed, checksummed, fsynced).
// Errors are swallowed like DiskCache I/O errors: a journal that cannot
// be written degrades durability, never availability.
func (j *journal) append(rec journalRecord) {
	if j == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.f == nil {
		return
	}
	if _, err := j.f.Write(frame); err != nil {
		return
	}
	j.f.Sync()
	j.logBytes += int64(len(frame))
}

// compact atomically replaces the snapshot with st and truncates the
// log, releasing its accumulated records.
func (j *journal) compact(st *journalState) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("service: journal closed")
	}
	tmp, err := os.CreateTemp(j.dir, ".snapshot-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(j.dir, snapshotName)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	j.snapSize = int64(len(b))

	if j.f != nil {
		j.f.Close()
	}
	f, err := os.OpenFile(filepath.Join(j.dir, logName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		j.f = nil
		return err
	}
	j.f = f
	j.logBytes = 0
	return nil
}

// bytes reports the journal's on-disk footprint (snapshot + log).
func (j *journal) bytes() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapSize + j.logBytes
}

// replayCount reports how many restarts (ever) recovered state.
func (j *journal) replayCount() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replays
}

// close releases the log file handle without compacting — the log
// remains authoritative for the next open. Server.Close compacts first
// for a clean shutdown; Server.kill (tests) just drops the handle,
// which is exactly what kill -9 leaves behind.
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
