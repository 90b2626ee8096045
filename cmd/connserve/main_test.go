package main

import (
	"strings"
	"testing"
)

// An unknown -workload name is an error naming the valid combinations, not a
// panic from the workload builder.
func TestResolveDatasetUnknownWorkload(t *testing.T) {
	_, _, _, err := resolveDataset("", "", "", "NOPE", 0.001, 1, 1, nil)
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, name := range []string{"NOPE", "CL", "UL", "ZL"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name %s", err, name)
		}
	}
	if _, _, _, err := resolveDataset("", "", "", "ul", 0.001, 1, 1, nil); err != nil {
		t.Fatalf("lower-case workload name rejected: %v", err)
	}
}
