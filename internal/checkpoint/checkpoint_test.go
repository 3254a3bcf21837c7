package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testManifest() Manifest {
	return Manifest{
		Campaign: "table6", SpecHash: "0123456789abcdef",
		TotalJobs: 3, ShardIndex: 1, ShardCount: 1,
	}
}

func record(i int, payload string) JobRecord {
	return JobRecord{
		Index: i, Label: fmt.Sprintf("job-%d", i), Attempts: 1,
		Body: json.RawMessage(payload),
	}
}

// writeJournal creates a journal with n job records and closes it.
func writeJournal(t *testing.T, path string, n int) {
	t.Helper()
	j, err := Create(path, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.Append(record(i, fmt.Sprintf(`{"value":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 3)

	rep, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TailTruncated {
		t.Errorf("clean journal reported truncated tail: %s", rep.TailError)
	}
	if rep.Manifest.Campaign != "table6" || rep.Manifest.Version != Version {
		t.Errorf("manifest = %+v", rep.Manifest)
	}
	if len(rep.Jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(rep.Jobs))
	}
	byIdx, err := rep.ByIndex()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec, ok := byIdx[i]
		if !ok {
			t.Fatalf("job %d missing from replay", i)
		}
		if want := fmt.Sprintf(`{"value":%d}`, i); string(rec.Body) != want {
			t.Errorf("job %d body = %s, want %s", i, rec.Body, want)
		}
	}
}

func TestCreateRefusesExistingJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 1)
	if _, err := Create(path, testManifest()); err == nil {
		t.Fatal("Create silently overwrote an existing journal")
	}
}

// TestRecoverTruncatedTail is the crash-mid-write case: a partial final
// line must be detected, reported, truncated away, and appending must
// continue cleanly afterwards.
func TestRecoverTruncatedTail(t *testing.T) {
	for _, cut := range []string{
		`{"v":1,"type":"job","seq":3,"bo`,                                   // torn JSON
		`{"v":1,"type":"job","seq":3,"body":{"value":99},"crc":"00000000"}`, // bad CRC
	} {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		writeJournal(t, path, 2)
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(append([]byte{}, clean...), []byte(cut+"\n")...), 0o644); err != nil {
			t.Fatal(err)
		}

		rep, err := Load(path)
		if err != nil {
			t.Fatalf("tail %q: %v", cut[:20], err)
		}
		if !rep.TailTruncated || rep.TailError == "" {
			t.Fatalf("tail %q: damage not reported: %+v", cut[:20], rep)
		}
		if len(rep.Jobs) != 2 {
			t.Fatalf("tail %q: replayed %d jobs, want 2", cut[:20], len(rep.Jobs))
		}

		j, rep2, err := Recover(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep2.Jobs) != 2 {
			t.Fatalf("recover replayed %d jobs, want 2", len(rep2.Jobs))
		}
		if err := j.Append(record(2, `{"value":2}`)); err != nil {
			t.Fatal(err)
		}
		j.Close()

		// The recovered-and-extended journal must now read back clean.
		rep3, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep3.TailTruncated || len(rep3.Jobs) != 3 {
			t.Fatalf("after recovery: truncated=%v jobs=%d, want clean 3", rep3.TailTruncated, len(rep3.Jobs))
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(got), `"crc":"00000000"`) || strings.Contains(string(got), `"bo`+"\n") {
			t.Error("damaged tail survived recovery")
		}
	}
}

// TestRecoverRestoresTornNewline: a kill can persist a whole record but
// not its newline. The record is durable and CRC-valid, so Recover keeps
// it, and the journal must stay loadable through two more appends instead
// of gluing the next record onto the same line.
func TestRecoverRestoresTornNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 2)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, clean[:len(clean)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	j, rep, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TailTruncated || len(rep.Jobs) != 2 {
		t.Fatalf("recover: truncated=%v jobs=%d, want clean 2", rep.TailTruncated, len(rep.Jobs))
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(clean) {
		t.Fatalf("recovered journal is not the clean one (err %v):\n%s", err, got)
	}
	for i := 2; i < 4; i++ {
		if err := j.Append(record(i, fmt.Sprintf(`{"value":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TailTruncated || len(back.Jobs) != 4 {
		t.Fatalf("after two appends: truncated=%v jobs=%d, want clean 4", back.TailTruncated, len(back.Jobs))
	}
	for i, rec := range back.Jobs {
		if want := fmt.Sprintf(`{"value":%d}`, i); string(rec.Body) != want {
			t.Errorf("job %d body = %s, want %s", i, rec.Body, want)
		}
	}
}

// TestRecoverCRLFJournal: Load measures offsets in file bytes, so a
// journal whose lines end in "\r\n" (an editor or a transfer rewrote
// them) is truncated at the right byte and gets its torn newline back.
func TestRecoverCRLFJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 2)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crlf := strings.ReplaceAll(string(clean), "\n", "\r\n")
	for _, in := range []string{
		crlf[:len(crlf)-2],                       // torn newline
		crlf + `{"v":1,"type":"job","seq":3,"bo`, // damaged tail
	} {
		if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Recover(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(record(2, `{"value":2}`)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		back, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.TailTruncated || len(rep.Jobs) != 2 || len(back.Jobs) != 3 {
			t.Fatalf("recovered %d jobs, reloaded truncated=%v with %d, want 2 then clean 3",
				len(rep.Jobs), back.TailTruncated, len(back.Jobs))
		}
	}
}

// TestMidJournalCorruptionFails: damage that is not the tail is real
// corruption and must fail loudly, never be replayed around.
func TestMidJournalCorruptionFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Flip a byte inside the second record's body.
	lines[1] = strings.Replace(lines[1], `"value":0`, `"value":7`, 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("mid-journal corruption silently replayed")
	} else if !strings.Contains(err.Error(), "corrupted mid-journal") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, _, err := Recover(path); err == nil {
		t.Fatal("Recover accepted a mid-journal corruption")
	}
}

func TestLoadRejectsEmptyAndHeaderless(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil {
		t.Error("empty journal accepted")
	}
	if _, err := Load(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing journal accepted")
	}
}

func TestByIndexDuplicateHandling(t *testing.T) {
	rep := &Replay{Jobs: []JobRecord{
		record(0, `{"a":1}`), record(0, `{"a":1}`), record(1, `{"b":2}`),
	}}
	byIdx, err := rep.ByIndex()
	if err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if len(byIdx) != 2 {
		t.Errorf("got %d indices, want 2", len(byIdx))
	}
	rep.Jobs = append(rep.Jobs, record(1, `{"b":999}`))
	if _, err := rep.ByIndex(); err == nil {
		t.Error("conflicting duplicate accepted")
	}
}

func TestSpecHashStability(t *testing.T) {
	type spec struct {
		Campaign string
		Seeds    []int64
	}
	a, err := SpecHash(spec{"table5", []int64{41, 42}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpecHash(spec{"table5", []int64{41, 42}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same spec hashed differently: %s vs %s", a, b)
	}
	c, _ := SpecHash(spec{"table5", []int64{41, 43}})
	if a == c {
		t.Error("different specs collided (seed change undetected)")
	}
	if len(a) != 16 {
		t.Errorf("hash %q is not 16 hex digits", a)
	}
}

// TestJournalPath pins the on-disk journal names: a change here would
// orphan every checkpoint already written.
func TestJournalPath(t *testing.T) {
	dir := t.TempDir()
	for campaign, want := range map[string]string{
		"table5":    "journal-table5-1of1.jsonl",
		"trials/D3": "journal-trials_D3-1of1.jsonl",
	} {
		if p := JournalPath(dir, campaign); p != filepath.Join(dir, want) {
			t.Errorf("JournalPath(%q) = %s, want %s", campaign, p, want)
		}
	}
}

func TestOutOfSequenceRecordFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	writeJournal(t, path, 1)
	// Splice a valid-CRC record with the wrong seq (a record from another
	// journal cat'ed on): CRC passes, sequence check must catch it.
	body := []byte(`{"index":9,"label":"alien","body":{}}`)
	env := envelope{V: Version, Type: "job", Seq: 7, Body: body, CRC: recordCRC("job", 7, body)}
	line, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(append(line, '\n'))
	// A second valid record after it so the splice is not mistaken for a
	// crash tail.
	body2 := []byte(`{"index":2,"label":"tail","body":{}}`)
	env2 := envelope{V: Version, Type: "job", Seq: 8, Body: body2, CRC: recordCRC("job", 8, body2)}
	line2, _ := json.Marshal(env2)
	f.Write(append(line2, '\n'))
	f.Close()

	if _, err := Load(path); err == nil {
		t.Fatal("out-of-sequence splice accepted")
	}
}
