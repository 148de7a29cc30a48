package main

import "testing"

// TestExampleRuns runs the example end to end, so the façade names it
// uses are pinned by use in tier 1.
func TestExampleRuns(t *testing.T) { main() }
