package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Manifest describes one run for the machine-readable summary written
// next to its results: what ran, with which arguments, when, and any
// run-specific extras (task, strategy, seed, …).
type Manifest struct {
	// Name identifies the run, e.g. "middlesim-fig6" or "middled-cloud".
	Name string `json:"name"`
	// Command is the argv that produced the run.
	Command []string `json:"command,omitempty"`
	// Started and Finished bound the run's wall-clock window.
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Build identifies the producing binary (filled by WriteSummary when
	// left empty), so summaries are correlatable to a commit.
	Build Build `json:"build"`
	// Extra carries free-form run parameters.
	Extra map[string]any `json:"extra,omitempty"`
}

// summary is the on-disk shape: the manifest plus a full metrics dump.
type summary struct {
	Manifest Manifest       `json:"manifest"`
	Metrics  map[string]any `json:"metrics"`
}

// WriteSummary writes the run manifest and a snapshot of every
// registered metric as indented JSON to path, creating the directory
// if needed.
func WriteSummary(path string, m Manifest, r *Registry) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("obs: creating summary dir: %w", err)
	}
	if m.Build == (Build{}) {
		m.Build = ReadBuild()
	}
	data, err := json.MarshalIndent(summary{Manifest: m, Metrics: r.Snapshot()}, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding summary: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: writing summary: %w", err)
	}
	return nil
}

// SummaryPath builds the conventional summary location:
// dir/<name>-<UTC timestamp>.json.
func SummaryPath(dir, name string, t time.Time) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s.json", name, t.UTC().Format("20060102T150405")))
}
