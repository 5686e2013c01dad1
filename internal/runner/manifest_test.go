package runner

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := LoadManifest(dir) // missing file → empty manifest
	if len(m.Experiments) != 0 {
		t.Fatalf("fresh manifest has %d experiments", len(m.Experiments))
	}
	m.Experiments["fig01"] = &ManifestEntry{
		Title:       "Ping clustering",
		ParamsHash:  "abc123",
		CodeVersion: "deadbeef",
		Quick:       true,
		WallSeconds: 1.25,
		Series:      2,
		Points:      100,
		Notes:       []string{"a note"},
		Files:       map[string]string{"fig01.csv": "ff"},
		Metrics:     &MetricsSnapshot{EventsFired: 42, RoundsCompleted: 3},
	}
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}

	got := LoadManifest(dir)
	e := got.Experiments["fig01"]
	if e == nil {
		t.Fatal("entry lost in round trip")
	}
	if e.Title != "Ping clustering" || e.ParamsHash != "abc123" ||
		e.CodeVersion != "deadbeef" || !e.Quick ||
		e.WallSeconds != 1.25 || e.Series != 2 || e.Points != 100 ||
		len(e.Notes) != 1 || e.Files["fig01.csv"] != "ff" {
		t.Fatalf("round-tripped entry = %+v", e)
	}
	if e.Metrics == nil || e.Metrics.EventsFired != 42 || e.Metrics.RoundsCompleted != 3 {
		t.Fatalf("round-tripped metrics = %+v", e.Metrics)
	}
	if got.Git == "" || got.GoVersion == "" {
		t.Fatalf("Write should stamp git/go_version, got %q/%q", got.Git, got.GoVersion)
	}
}

func TestLoadManifestRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)

	// Malformed JSON → empty manifest, not an error.
	os.WriteFile(path, []byte("{not json"), 0o644)
	if m := LoadManifest(dir); len(m.Experiments) != 0 {
		t.Fatal("malformed manifest should load as empty")
	}

	// A future schema version must be ignored, never misread.
	os.WriteFile(path, []byte(`{"version": 99, "experiments": {"x": {}}}`), 0o644)
	if m := LoadManifest(dir); len(m.Experiments) != 0 {
		t.Fatal("future-versioned manifest should load as empty")
	}
}

func TestUpToDate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig.csv")
	os.WriteFile(path, []byte("data\n"), 0o644)
	h, err := HashFile(path)
	if err != nil {
		t.Fatal(err)
	}

	entry := &ManifestEntry{
		ParamsHash:  "p1",
		CodeVersion: "c1",
		Files:       map[string]string{"fig.csv": h},
	}
	if !entry.UpToDate(dir, "p1", "c1") {
		t.Fatal("matching entry with intact file should be up to date")
	}
	if entry.UpToDate(dir, "p2", "c1") {
		t.Fatal("params mismatch must re-run")
	}
	if entry.UpToDate(dir, "p1", "c2") {
		t.Fatal("code-version mismatch must re-run")
	}
	var nilEntry *ManifestEntry
	if nilEntry.UpToDate(dir, "p1", "c1") {
		t.Fatal("nil entry must re-run")
	}
	if (&ManifestEntry{ParamsHash: "p1", CodeVersion: "c1"}).UpToDate(dir, "p1", "c1") {
		t.Fatal("entry with no files must re-run (nothing to reuse)")
	}

	// Tampered output invalidates the entry.
	os.WriteFile(path, []byte("tampered\n"), 0o644)
	if entry.UpToDate(dir, "p1", "c1") {
		t.Fatal("changed file content must re-run")
	}
	os.Remove(path)
	if entry.UpToDate(dir, "p1", "c1") {
		t.Fatal("deleted file must re-run")
	}
}

func TestParamsHash(t *testing.T) {
	base := ParamsHash("fig01", false)
	if len(base) != 16 || strings.Trim(base, "0123456789abcdef") != "" {
		t.Fatalf("hash %q is not 16 hex chars", base)
	}
	if ParamsHash("fig01", false) != base {
		t.Fatal("equal inputs must hash equally")
	}
	for name, h := range map[string]string{
		"id":    ParamsHash("fig02", false),
		"quick": ParamsHash("fig01", true),
	} {
		if h == base {
			t.Errorf("changing %s did not change the hash", name)
		}
	}
}

func TestCodeVersionStable(t *testing.T) {
	a, b := CodeVersion(), CodeVersion()
	if a == "" || a != b {
		t.Fatalf("CodeVersion() = %q then %q; want stable non-empty", a, b)
	}
}
