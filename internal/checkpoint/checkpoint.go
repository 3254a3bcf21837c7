// Package checkpoint implements the crash-safe campaign journal: an
// append-only, fsync'd JSONL file that records a campaign's completed
// jobs so a fleet killed at any point can resume without losing work.
// The distributed coordinator (internal/coord) writes the same format, so
// a campaign split across worker machines reassembles into one journal.
//
// # Format
//
// A journal is a sequence of newline-terminated JSON envelopes:
//
//	{"v":1,"type":"manifest","seq":0,"body":{...},"crc":"xxxxxxxx"}
//	{"v":1,"type":"job","seq":1,"body":{...},"crc":"xxxxxxxx"}
//	...
//
// The first record is always the Manifest — the campaign's identity
// (name, a hash of the full job list, the job count). Every
// following record is one completed job's serialised outcome. The crc
// field is the CRC-32 (IEEE) of "type:seq:" + the body's exact bytes,
// so any bit flip, splice, or truncation inside a record is detected on
// replay rather than silently replayed into a table.
//
// # Crash safety
//
// Append writes the record and fsyncs the file before returning, so a
// record that Append reported durable survives a process kill or power
// loss. A crash mid-write leaves a partial final line; Recover detects
// it (parse or CRC failure on the last record only), reports it, and
// truncates the file back to the last durable record before reopening
// for append. A crash that persisted a whole record but not its newline
// leaves a valid final record; Recover keeps it and restores the
// newline. A damaged record that is *not* the tail is real corruption —
// Load fails loudly instead of resuming from it.
//
// # Determinism contract
//
// The journal stores outcomes byte-for-byte as the caller serialised
// them. Because every campaign job is deterministic in its seed, a
// killed-and-resumed run re-executes only the jobs missing from the
// journal and reproduces the uninterrupted run exactly. internal/harness
// pins that invariant against the golden tables.
package checkpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"zcover/internal/telemetry"
)

// Version is the journal format version; bumped on incompatible change.
const Version = 1

// Process-wide checkpoint metrics.
var (
	mRecords   = telemetry.Default().Counter("checkpoint_records_total")
	mBytes     = telemetry.Default().Counter("checkpoint_bytes_total")
	mFsyncs    = telemetry.Default().Counter("checkpoint_fsyncs_total")
	mResumed   = telemetry.Default().Counter("checkpoint_jobs_resumed_total")
	mRecovered = telemetry.Default().Counter("checkpoint_recovered_tails_total")
)

// NoteResumed counts jobs whose outcome was served from a journal
// instead of being re-executed (the checkpoint_jobs_resumed_total
// metric). Callers invoke it once per cache hit.
func NoteResumed() { mResumed.Inc() }

// Manifest identifies the campaign a journal belongs to. Resume
// refuses journals whose manifest does not match the job list being
// executed — a checkpoint must never replay into a different
// campaign.
type Manifest struct {
	// Version is the journal format version (see Version).
	Version int `json:"version"`
	// Campaign names the experiment driver ("table5", "trials/D3", ...).
	Campaign string `json:"campaign"`
	// SpecHash fingerprints the full job list (SpecHash of the specs),
	// budgets and seeds included, so a resumed run provably executes
	// the same campaign the journal was written for.
	SpecHash string `json:"spec_hash"`
	// TotalJobs is the campaign's job count.
	TotalJobs int `json:"total_jobs"`
	// ShardIndex/ShardCount record which 1-based slice of the job list
	// the journal covers. Create writes 1/1 (the whole campaign), the
	// only value resume accepts; the fields stay in the format so every
	// journal on disk keeps parsing.
	ShardIndex int `json:"shard_index"`
	// ShardCount is the number of slices the job list was split into.
	ShardCount int `json:"shard_count"`
}

// JobRecord is one completed job's durable outcome.
type JobRecord struct {
	// Index is the job's position in the campaign's job list.
	Index int `json:"index"`
	// Label echoes Job.Label for human inspection of journals.
	Label string `json:"label"`
	// Attempts is how many times the job ran before succeeding.
	Attempts int `json:"attempts,omitempty"`
	// Body is the caller-serialised outcome, stored byte-for-byte.
	Body json.RawMessage `json:"body"`
}

// envelope is the on-disk line framing around every record.
type envelope struct {
	V    int             `json:"v"`
	Type string          `json:"type"`
	Seq  int             `json:"seq"`
	Body json.RawMessage `json:"body"`
	CRC  string          `json:"crc"`
}

// recordCRC computes the integrity checksum of one record.
func recordCRC(typ string, seq int, body []byte) string {
	h := crc32.NewIEEE()
	io.WriteString(h, typ)
	io.WriteString(h, ":")
	io.WriteString(h, strconv.Itoa(seq))
	io.WriteString(h, ":")
	h.Write(body)
	return fmt.Sprintf("%08x", h.Sum32())
}

// specTable is the CRC-64/ECMA table SpecHash fingerprints with.
var specTable = crc64.MakeTable(crc64.ECMA)

// SpecHash fingerprints an arbitrary campaign spec by hashing its JSON
// form. encoding/json emits struct fields in declaration order, so the
// same spec always hashes identically across runs and machines. The
// journal needs mismatch *detection*, not cryptographic strength, so a
// 16-hex-digit CRC-64 is enough.
func SpecHash(spec any) (string, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("checkpoint: hashing spec: %w", err)
	}
	return fmt.Sprintf("%016x", crc64.Checksum(raw, specTable)), nil
}

// JournalPath names the journal file for one campaign inside a checkpoint
// directory. Campaign names may contain '/' (trials/D3); path separators
// are flattened so every journal lives directly in dir. The fixed
// "-1of1" suffix keeps the names earlier builds wrote, so existing
// checkpoints resume.
func JournalPath(dir, campaign string) string {
	return filepath.Join(dir, "journal-"+sanitize(campaign)+"-1of1.jsonl")
}

// sanitize flattens a campaign name into a filename component.
func sanitize(name string) string {
	out := make([]byte, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '-', c == '.':
			out[i] = c
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Journal is an open, append-only checkpoint file. Append is safe for
// concurrent use (fleet workers complete jobs in arbitrary order).
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	nextSeq int
}

// Create starts a new journal at path, writing (and fsyncing) the
// manifest record. It fails if the file already exists — an existing
// journal must be resumed with Recover or removed deliberately, never
// silently overwritten.
func Create(path string, m Manifest) (*Journal, error) {
	m.Version = Version
	if m.ShardIndex <= 0 || m.ShardCount <= 0 {
		m.ShardIndex, m.ShardCount = 1, 1
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: creating journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	body, err := json.Marshal(m)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	if err := j.append("manifest", body); err != nil {
		f.Close()
		return nil, err
	}
	// Make the new directory entry durable too: an fsync'd file that a
	// crash can unlink is not a checkpoint.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return j, nil
}

// Append journals one completed job. The record is durable (written and
// fsync'd) when Append returns nil.
func (j *Journal) Append(rec JobRecord) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding job %d: %w", rec.Index, err)
	}
	return j.append("job", body)
}

// append frames, writes, and fsyncs one record.
func (j *Journal) append(typ string, body []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	env := envelope{
		V: Version, Type: typ, Seq: j.nextSeq,
		Body: body, CRC: recordCRC(typ, j.nextSeq, body),
	}
	line, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding record: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("checkpoint: writing journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: fsync: %w", err)
	}
	j.nextSeq++
	mRecords.Inc()
	mBytes.Add(int64(len(line)))
	mFsyncs.Inc()
	return nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the journal file. Records are already durable; Close
// only releases the descriptor.
func (j *Journal) Close() error { return j.f.Close() }

// Replay is the validated content of a journal.
type Replay struct {
	// Manifest is the journal's identity record.
	Manifest Manifest
	// Jobs holds every durable job record in append order.
	Jobs []JobRecord
	// TailTruncated reports that the final line was damaged (a crash
	// mid-write) and was dropped. The journal is otherwise intact.
	TailTruncated bool
	// TailError describes the dropped tail when TailTruncated.
	TailError string

	// validEnd is the byte offset just past the last durable record.
	validEnd int64
	// tornNewline reports that the last durable record ends the file
	// without its newline: a kill landed between its last byte and '\n'.
	tornNewline bool
	nextSeq     int
}

// ByIndex returns the replayed job outcomes keyed by job index. A job
// appearing twice (a crash between write and in-memory bookkeeping can
// duplicate the tail record) keeps the first occurrence; a duplicate
// with *different* bytes is corruption and errors.
func (r *Replay) ByIndex() (map[int]JobRecord, error) {
	out := make(map[int]JobRecord, len(r.Jobs))
	for _, rec := range r.Jobs {
		if prev, ok := out[rec.Index]; ok {
			if string(prev.Body) != string(rec.Body) {
				return nil, fmt.Errorf("checkpoint: job %d (%s) journaled twice with different outcomes",
					rec.Index, rec.Label)
			}
			continue
		}
		out[rec.Index] = rec
	}
	return out, nil
}

// Load reads and validates a journal. A damaged final record is
// tolerated and reported through Replay.TailTruncated (the crash-tail
// case); a damaged record with durable records after it fails — that
// is corruption, not an interrupted write.
func Load(path string) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()

	rep := &Replay{}
	rd := bufio.NewReader(f)
	var offset int64
	line := 0
	var pendingErr string // damage seen on the most recent line
	for {
		raw, err := rd.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("checkpoint: reading %s: %w", path, err)
		}
		if len(raw) == 0 {
			break
		}
		line++
		lineLen := int64(len(raw))
		torn := raw[len(raw)-1] != '\n' // the file ends inside this line
		if !torn {
			raw = raw[:len(raw)-1]
		}
		if pendingErr != "" {
			// The damaged line was not the tail after all.
			return nil, fmt.Errorf("checkpoint: %s: record %d corrupted mid-journal: %s",
				path, line-1, pendingErr)
		}
		if len(raw) == 0 {
			offset += lineLen
			continue
		}
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			pendingErr = err.Error()
			offset += lineLen
			continue
		}
		if env.CRC != recordCRC(env.Type, env.Seq, env.Body) {
			pendingErr = fmt.Sprintf("CRC mismatch on %s record seq %d", env.Type, env.Seq)
			offset += lineLen
			continue
		}
		if env.Seq != rep.nextSeq {
			return nil, fmt.Errorf("checkpoint: %s: record %d out of sequence (seq %d, want %d)",
				path, line, env.Seq, rep.nextSeq)
		}
		switch env.Type {
		case "manifest":
			if env.Seq != 0 {
				return nil, fmt.Errorf("checkpoint: %s: manifest not first record", path)
			}
			if err := json.Unmarshal(env.Body, &rep.Manifest); err != nil {
				return nil, fmt.Errorf("checkpoint: %s: manifest: %w", path, err)
			}
			if rep.Manifest.Version != Version {
				return nil, fmt.Errorf("checkpoint: %s: journal version %d, this build reads %d",
					path, rep.Manifest.Version, Version)
			}
		case "job":
			if rep.nextSeq == 0 {
				return nil, fmt.Errorf("checkpoint: %s: job record before manifest", path)
			}
			var rec JobRecord
			if err := json.Unmarshal(env.Body, &rec); err != nil {
				return nil, fmt.Errorf("checkpoint: %s: job record seq %d: %w", path, env.Seq, err)
			}
			rep.Jobs = append(rep.Jobs, rec)
		default:
			return nil, fmt.Errorf("checkpoint: %s: unknown record type %q", path, env.Type)
		}
		rep.nextSeq++
		offset += lineLen
		rep.validEnd = offset
		rep.tornNewline = torn
	}
	if pendingErr != "" {
		rep.TailTruncated = true
		rep.TailError = pendingErr
	}
	if rep.nextSeq == 0 {
		return nil, fmt.Errorf("checkpoint: %s: no durable records (empty or fully damaged journal)", path)
	}
	return rep, nil
}

// Recover loads a journal and reopens it for appending: the
// kill-anywhere resume path. A damaged tail record is truncated away
// first so subsequent appends extend a clean journal. A durable final
// record whose newline the kill cut off gets the newline back, so the
// next append starts a line of its own.
func Recover(path string) (*Journal, *Replay, error) {
	rep, err := Load(path)
	if err != nil {
		return nil, nil, err
	}
	if rep.TailTruncated {
		if err := os.Truncate(path, rep.validEnd); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: truncating damaged tail: %w", err)
		}
		mRecovered.Inc()
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: reopening journal: %w", err)
	}
	if rep.tornNewline {
		if _, err = f.Write([]byte{'\n'}); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("checkpoint: restoring the final newline: %w", err)
		}
		mRecovered.Inc()
	}
	return &Journal{f: f, path: path, nextSeq: rep.nextSeq}, rep, nil
}
