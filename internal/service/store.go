package service

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"repro/internal/serialize"
)

// Records are framed in the shared checksummed serialize.Envelope, so a
// torn write (rename landed, content truncated) is detected at load time
// instead of being misread. recordDomain and recordVersion are the digest
// domain and format version of that frame; together they keep the files
// byte-compatible with those written before records moved onto it.
const (
	recordDomain  = "nptsn-service-record-v2"
	recordVersion = 2
)

// corruptDirName is the quarantine subdirectory of the data dir. Files
// that fail to decode at boot are moved here — kept for post-mortem, out
// of the way of the next boot.
const corruptDirName = "corrupt"

// record is the persisted form of a job. Terminal jobs carry their final
// status plus, for done jobs, the result. Live jobs (queued, running) are
// the crash journal: they additionally carry the original Request, so a
// restarted server can re-queue them instead of silently dropping work
// that was accepted with a 202.
type record struct {
	Status Status  `json:"status"`
	Result *Result `json:"result,omitempty"`
	// Request is the journaled submission of a non-terminal job; terminal
	// records drop it (the result is what matters then).
	Request *Request `json:"request,omitempty"`
	// Attempts counts the server lives that have started this job; the
	// restart re-queue gives up past Options.MaxAttempts.
	Attempts int `json:"attempts,omitempty"`
}

// recordFile is the job's file name inside the data directory. Job IDs
// are 16 hex digits (newJobID), so the name never needs escaping.
func recordFile(dir, id string) string {
	return filepath.Join(dir, "job-"+id+".json")
}

var recordNameRE = regexp.MustCompile(`^job-[0-9a-f]{16}\.json$`)

// saveRecord atomically persists one job under a checksummed envelope.
// faults is the filesystem fault-injection seam (nil in production).
func saveRecord(dir string, rec record, faults serialize.FSFaults) error {
	return serialize.WriteFileAtomicFS(recordFile(dir, rec.Status.ID), faults, func(w io.Writer) error {
		return serialize.WriteEnvelope(w, recordDomain, recordVersion, rec)
	})
}

// deleteRecord removes a job's record; a missing file is not an error
// (memory-only jobs have none).
func deleteRecord(dir, id string) error {
	err := os.Remove(recordFile(dir, id))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// decodeRecord parses one record file. Every failure mode returns an
// error naming what was wrong — the reason ends up in the boot event next
// to the quarantined file. Files of any other format version, the
// unchecksummed version-1 records included, are rejected.
func decodeRecord(data []byte) (record, error) {
	var rec record
	if err := serialize.OpenEnvelope(data, recordDomain, recordVersion, &rec); err != nil {
		return record{}, err
	}
	if rec.Status.ID == "" {
		return record{}, fmt.Errorf("record without a job ID")
	}
	switch rec.Status.State {
	case StateQueued, StateRunning:
		if rec.Request == nil {
			return record{}, fmt.Errorf("live record (%s) without its journaled request", rec.Status.State)
		}
	case StateDone, StateFailed, StateCancelled:
	default:
		return record{}, fmt.Errorf("unknown job state %q", rec.Status.State)
	}
	return rec, nil
}

// loadRecords reads every job record in dir, oldest submission first.
// Files that cannot be decoded — torn writes caught by the checksum,
// truncated JSON, future format versions, foreign files — are moved into
// dir/corrupt/ and reported in quarantined ("name: reason" lines): one bad
// file must not take the whole service down, but it must not vanish
// silently either. A missing directory is created.
func loadRecords(dir string) (recs []record, quarantined []string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: data dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("service: data dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		var reason string
		if !recordNameRE.MatchString(name) {
			reason = "not a job record (foreign file or temp residue)"
		} else if data, readErr := os.ReadFile(filepath.Join(dir, name)); readErr != nil {
			reason = readErr.Error()
		} else if rec, decErr := decodeRecord(data); decErr != nil {
			reason = decErr.Error()
		} else {
			recs = append(recs, rec)
			continue
		}
		if qErr := quarantineFile(dir, name); qErr != nil {
			return nil, nil, fmt.Errorf("service: quarantine %s: %w", name, qErr)
		}
		quarantined = append(quarantined, name+": "+reason)
	}
	sort.Slice(recs, func(i, k int) bool {
		return recs[i].Status.SubmittedAt.Before(recs[k].Status.SubmittedAt)
	})
	return recs, quarantined, nil
}

// quarantineFile moves one undecodable file into the corrupt/ dir.
func quarantineFile(dir, name string) error {
	qdir := filepath.Join(dir, corruptDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	return os.Rename(filepath.Join(dir, name), filepath.Join(qdir, name))
}
