package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteBenchNumbersPastNewest checks that -bench snapshots form a
// trajectory: each write takes the number after the highest BENCH_*.json
// in the directory, and no existing file changes.
func TestWriteBenchNumbersPastNewest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	path, err := writeBench(dir, []byte("first"))
	if err != nil || path != filepath.Join(dir, "BENCH_0001.json") {
		t.Fatalf("new dir: writeBench = (%q, %v), want BENCH_0001.json", path, err)
	}
	old := map[string]string{"BENCH_0001.json": "first"}
	for _, name := range []string{"BENCH_0009.json", "BENCH_0004.json", "BENCH_notes.json", "TIMINGS.json"} {
		old[name] = "old " + name
		if err := os.WriteFile(filepath.Join(dir, name), []byte(old[name]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"BENCH_0010.json", "BENCH_0011.json"} {
		path, err := writeBench(dir, []byte(want))
		if err != nil || path != filepath.Join(dir, want) {
			t.Fatalf("writeBench = (%q, %v), want %s", path, err, want)
		}
		if got, _ := os.ReadFile(path); string(got) != want {
			t.Fatalf("%s holds %q", want, got)
		}
	}
	for name, want := range old {
		if got, _ := os.ReadFile(filepath.Join(dir, name)); string(got) != want {
			t.Fatalf("%s now holds %q, want %q", name, got, want)
		}
	}
}
