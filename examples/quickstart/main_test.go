package main

import "testing"

// TestMainRuns runs the example end to end; a failure exits nonzero.
func TestMainRuns(t *testing.T) { main() }
