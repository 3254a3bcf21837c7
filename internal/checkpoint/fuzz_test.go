package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecover fuzzes the resume path on arbitrary journal bytes: Recover
// must never panic, and a journal it accepts must stay loadable after one
// more append, replaying the recovered jobs plus the new one. The
// committed corpus holds a clean 2-job journal, the same journal without
// its final newline, and one with a damaged tail record.
func FuzzRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Recover(path)
		if err != nil {
			return
		}
		extra := record(len(rep.Jobs), `{"value":"appended"}`)
		if err := j.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := Load(path)
		if err != nil {
			t.Fatalf("recovered journal no longer loads after one append: %v\ninput: %q", err, data)
		}
		want := append(rep.Jobs, extra)
		if back.TailTruncated || len(back.Jobs) != len(want) {
			t.Fatalf("reloaded truncated=%v with %d jobs, want clean %d\ninput: %q",
				back.TailTruncated, len(back.Jobs), len(want), data)
		}
		for i, got := range back.Jobs {
			w := want[i]
			if got.Index != w.Index || got.Label != w.Label || got.Attempts != w.Attempts ||
				string(got.Body) != string(w.Body) {
				t.Fatalf("job %d reloaded as %+v, want %+v\ninput: %q", i, got, w, data)
			}
		}
	})
}
