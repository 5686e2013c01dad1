package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// ManifestName is the provenance file a writing run maintains in OutDir.
const ManifestName = "MANIFEST.json"

// manifestVersion guards the schema; a reader that sees a newer version
// treats the manifest as absent rather than misinterpreting it.
const manifestVersion = 1

// Manifest records, per experiment, everything needed to (a) prove where
// an output file came from and (b) decide whether a re-run is necessary.
type Manifest struct {
	Version     int                       `json:"version"`
	Git         string                    `json:"git"`
	GoVersion   string                    `json:"go_version"`
	Experiments map[string]*ManifestEntry `json:"experiments"`
}

// ManifestEntry is one experiment's provenance record. ParamsHash and
// CodeVersion together form the skip key: if both match the pending run
// and every file below still has its recorded content hash, the
// experiment is up to date. The remaining fields let a skipped
// experiment still contribute its notes and counts to INDEX.md and
// TIMINGS.json without re-running.
type ManifestEntry struct {
	Title       string            `json:"title"`
	ParamsHash  string            `json:"params_hash"`
	CodeVersion string            `json:"code_version"`
	Quick       bool              `json:"quick"`
	WallSeconds float64           `json:"wall_seconds"`
	Series      int               `json:"series"`
	Points      int               `json:"points"`
	Notes       []string          `json:"notes,omitempty"`
	Files       map[string]string `json:"files"` // name → sha256 of content
	Metrics     *MetricsSnapshot  `json:"metrics,omitempty"`
}

// LoadManifest reads dir's manifest. A missing, unreadable, malformed,
// or future-versioned manifest yields an empty one: the worst outcome is
// a redundant re-run, never a wrong skip.
func LoadManifest(dir string) *Manifest {
	m := &Manifest{Version: manifestVersion, Experiments: map[string]*ManifestEntry{}}
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return m
	}
	var disk Manifest
	if json.Unmarshal(buf, &disk) != nil || disk.Version != manifestVersion || disk.Experiments == nil {
		return m
	}
	return &disk
}

// Write stamps the environment fields and writes the manifest to dir.
// Map keys marshal sorted, so equal content is byte-identical.
func (m *Manifest) Write(dir string) error {
	m.Version = manifestVersion
	m.Git = GitDescribe()
	m.GoVersion = runtime.Version()
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(buf, '\n'), 0o644)
}

// UpToDate reports whether the entry covers a pending (paramsHash,
// codeVersion) run and all of its recorded files are intact in dir. An
// entry with no recorded files is never up to date — there is nothing to
// reuse.
func (e *ManifestEntry) UpToDate(dir, paramsHash, codeVersion string) bool {
	if e == nil || e.ParamsHash != paramsHash || e.CodeVersion != codeVersion {
		return false
	}
	if len(e.Files) == 0 {
		return false
	}
	for name, want := range e.Files {
		got, err := HashFile(filepath.Join(dir, name))
		if err != nil || got != want {
			return false
		}
	}
	return true
}

// ParamsHash fingerprints one experiment invocation: the experiment id
// and the quick/paper scale switch. Jobs is deliberately excluded —
// worker count never changes output.
func ParamsHash(id string, quick bool) string {
	payload := struct {
		ID    string `json:"id"`
		Quick bool   `json:"quick"`
	}{id, quick}
	buf, _ := json.Marshal(payload) // a struct of a string and a bool always marshals
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])[:16]
}

// HashFile returns the sha256 of the file's content, hex-encoded.
func HashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

var (
	codeVersionOnce sync.Once
	codeVersion     string
)

// CodeVersion fingerprints the running binary (sha256 of the executable,
// truncated). Two invocations of the same build agree; any rebuild —
// whatever changed — invalidates every cached experiment, which is the
// conservative side of the incremental contract. Falls back to the Go
// toolchain version if the executable can't be read.
func CodeVersion() string {
	codeVersionOnce.Do(func() {
		codeVersion = runtime.Version()
		exe, err := os.Executable()
		if err != nil {
			return
		}
		f, err := os.Open(exe)
		if err != nil {
			return
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return
		}
		codeVersion = hex.EncodeToString(h.Sum(nil))[:16]
	})
	return codeVersion
}

var (
	gitOnce     sync.Once
	gitDescribe string
)

// GitDescribe returns `git describe --always --dirty --tags` for the
// current directory, or "unknown" outside a work tree or without git.
// Recorded for provenance only; the skip decision rests on CodeVersion.
func GitDescribe() string {
	gitOnce.Do(func() {
		gitDescribe = "unknown"
		out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
		if err != nil {
			return
		}
		if s := strings.TrimSpace(string(out)); s != "" {
			gitDescribe = s
		}
	})
	return gitDescribe
}
