package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serialize"
)

// goodRecord builds a decodable record for store tests.
func goodRecord(id string, state State) record {
	rec := record{
		Status: Status{
			ID:          id,
			State:       state,
			SubmittedAt: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
			Fingerprint: "cafecafecafecafecafecafecafecafe",
		},
	}
	if !state.Terminal() {
		rec.Request = &Request{}
	}
	return rec
}

// legacyV1Record encodes the retired version-1 record frame: status
// fields inline, no checksum.
func legacyV1Record(st Status) ([]byte, error) {
	return json.Marshal(struct {
		Version int    `json:"version"`
		Status  Status `json:"status"`
	}{1, st})
}

// TestLoadRecordsCorruptionTable drives every on-disk failure mode through
// loadRecords: each bad file must land in corrupt/ with the boot report
// naming it, never fail the whole load, and never be silently ignored.
func TestLoadRecordsCorruptionTable(t *testing.T) {
	const id = "0123456789abcdef"
	name := "job-" + id + ".json"

	writeGood := func(t *testing.T, dir string, state State) {
		t.Helper()
		if err := saveRecord(dir, goodRecord(id, state), nil); err != nil {
			t.Fatal(err)
		}
	}
	writeLegacy := func(t *testing.T, dir string, state State) {
		t.Helper()
		data, err := legacyV1Record(goodRecord(id, state).Status)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		// write populates the data dir; file is the name expected in
		// corrupt/ afterwards ("" = nothing quarantined).
		write      func(t *testing.T, dir string)
		quarantine string
		reason     string // substring of the reported reason
		loaded     int
	}{
		{
			name:   "valid v2 record loads",
			write:  func(t *testing.T, dir string) { writeGood(t, dir, StateDone) },
			loaded: 1,
		},
		{
			name:       "legacy v1 record is quarantined",
			write:      func(t *testing.T, dir string) { writeLegacy(t, dir, StateDone) },
			quarantine: name,
			reason:     "envelope version 1,",
		},
		{
			name: "truncated record is quarantined",
			write: func(t *testing.T, dir string) {
				writeGood(t, dir, StateDone)
				path := filepath.Join(dir, name)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// The torn-write shape: rename landed, content cut short.
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			quarantine: name,
			reason:     "not an envelope",
		},
		{
			name: "checksum mismatch is quarantined",
			write: func(t *testing.T, dir string) {
				writeGood(t, dir, StateDone)
				path := filepath.Join(dir, name)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				// Valid JSON, silently edited payload: only the checksum
				// can catch this.
				tampered := strings.Replace(string(data), id, "ffffffffffffffff", 1)
				if tampered == string(data) {
					t.Fatal("tamper had no effect")
				}
				if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			quarantine: name,
			reason:     "checksum mismatch",
		},
		{
			name: "future format version is quarantined",
			write: func(t *testing.T, dir string) {
				env := serialize.Envelope{Version: 99, Sum: "00", Payload: json.RawMessage(`{}`)}
				data, err := json.Marshal(env)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			quarantine: name,
			reason:     "envelope version 99",
		},
		{
			name: "foreign file is quarantined",
			write: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hello"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			quarantine: "notes.txt",
			reason:     "not a job record",
		},
		{
			name: "temp residue from a crashed write is quarantined",
			write: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "."+name+".tmp-123"), []byte("{"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			quarantine: "." + name + ".tmp-123",
			reason:     "not a job record",
		},
		{
			name:       "legacy record in live state is quarantined",
			write:      func(t *testing.T, dir string) { writeLegacy(t, dir, StateRunning) },
			quarantine: name,
			reason:     "envelope version 1,",
		},
		{
			name: "live record without its journaled request is quarantined",
			write: func(t *testing.T, dir string) {
				rec := goodRecord(id, StateRunning)
				rec.Request = nil
				if err := saveRecord(dir, rec, nil); err != nil {
					t.Fatal(err)
				}
			},
			quarantine: name,
			reason:     "without its journaled request",
		},
		{
			name: "journaled live record loads",
			write: func(t *testing.T, dir string) {
				writeGood(t, dir, StateRunning)
			},
			loaded: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir)
			recs, quarantined, err := loadRecords(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.loaded {
				t.Fatalf("loaded %d records, want %d", len(recs), tc.loaded)
			}
			if tc.quarantine == "" {
				if len(quarantined) != 0 {
					t.Fatalf("unexpected quarantine: %v", quarantined)
				}
				return
			}
			if len(quarantined) != 1 {
				t.Fatalf("quarantined %v, want exactly %s", quarantined, tc.quarantine)
			}
			if !strings.Contains(quarantined[0], tc.reason) {
				t.Fatalf("quarantine reason %q does not mention %q", quarantined[0], tc.reason)
			}
			if _, err := os.Stat(filepath.Join(dir, corruptDirName, tc.quarantine)); err != nil {
				t.Fatalf("quarantined file missing from corrupt/: %v", err)
			}
			if _, err := os.Stat(filepath.Join(dir, tc.quarantine)); !os.IsNotExist(err) {
				t.Fatal("quarantined file still present in the data dir")
			}
			// A second boot over the now-clean dir sees nothing wrong.
			_, again, err := loadRecords(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != 0 {
				t.Fatalf("second load still quarantines: %v", again)
			}
		})
	}
}

// TestRecordRoundTrip checks the journal fields survive the envelope.
func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := goodRecord("0123456789abcdef", StateQueued)
	rec.Attempts = 2
	if err := saveRecord(dir, rec, nil); err != nil {
		t.Fatal(err)
	}
	recs, quarantined, err := loadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 0 || len(recs) != 1 {
		t.Fatalf("load = %d recs, %v quarantined", len(recs), quarantined)
	}
	got := recs[0]
	if got.Status.ID != rec.Status.ID || got.Status.State != StateQueued ||
		got.Attempts != 2 || got.Request == nil {
		t.Fatalf("round-tripped record diverged: %+v", got)
	}
}

// compatFixture is a done job's record (result, certificate and journaled
// request) as written by the store before records moved onto the shared
// serialize.Envelope.
const compatFixture = "job-c089386cf09867c0.json"

// TestLoadRecordsCompatibilityFixture: data dirs written before the move
// onto serialize.Envelope keep loading, and a record re-saved today is
// byte-identical to the committed one.
func TestLoadRecordsCompatibilityFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", compatFixture))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, compatFixture), want, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, quarantined, err := loadRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 0 || len(recs) != 1 {
		t.Fatalf("load = %d recs, %v quarantined", len(recs), quarantined)
	}
	rec := recs[0]
	if rec.Status.ID != "c089386cf09867c0" || rec.Status.State != StateDone || rec.Request == nil ||
		rec.Result == nil || rec.Result.Solution == nil || rec.Result.Certificate == nil || !rec.Result.Certificate.OK() {
		t.Fatalf("fixture record lost content: %+v", rec)
	}
	out := t.TempDir()
	if err := saveRecord(out, rec, nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(recordFile(out, rec.Status.ID))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("re-saved record differs from the fixture:\n%s", got)
	}
}

// FuzzDecodeRecord drives untrusted bytes from the data dir through
// decodeRecord: it must never panic, and every record it accepts must
// pass the post-decode checks the restart path relies on.
func FuzzDecodeRecord(f *testing.F) {
	dir := f.TempDir()
	const id = "0123456789abcdef"
	for _, rec := range []record{goodRecord(id, StateDone), goodRecord(id, StateRunning)} {
		if err := saveRecord(dir, rec, nil); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(recordFile(dir, id))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add([]byte(strings.Replace(string(data), `"version": 2`, `"version": 3`, 1)))
	}
	legacy, err := legacyV1Record(goodRecord(id, StateDone).Status)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	if fixture, err := os.ReadFile(filepath.Join("testdata", compatFixture)); err == nil {
		f.Add(fixture)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		if rec.Status.ID == "" {
			t.Fatal("accepted a record without a job ID")
		}
		switch rec.Status.State {
		case StateQueued, StateRunning:
			if rec.Request == nil {
				t.Fatalf("accepted a live (%s) record without its journaled request", rec.Status.State)
			}
		case StateDone, StateFailed, StateCancelled:
		default:
			t.Fatalf("accepted unknown state %q", rec.Status.State)
		}
	})
}
