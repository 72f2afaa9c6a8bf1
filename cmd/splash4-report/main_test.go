package main

import (
	"strings"
	"testing"

	"repro/internal/report"
)

func TestLookupExperiment(t *testing.T) {
	for _, id := range []string{"e5", "E5", "all", "ALL"} {
		if run, err := lookup(id); err != nil || run == nil {
			t.Errorf("lookup(%q) = %v, want an experiment", id, err)
		}
	}
	for _, id := range []string{"E5b", "E10", ""} {
		_, err := lookup(id)
		if err == nil {
			t.Fatalf("lookup(%q) resolved", id)
		}
		for _, e := range report.Experiments {
			if !strings.Contains(err.Error(), e.ID) {
				t.Errorf("lookup(%q) error %q does not list %s", id, err, e.ID)
			}
		}
	}
}
