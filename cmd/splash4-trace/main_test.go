package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// TestRunWritesValidChromeTrace drives the whole command on a real fft
// capture under each kit: run must pass its own census and export gates,
// and the file it leaves behind must re-validate as Chrome trace JSON
// (trace.TestChromeGolden checks the exporter on a synthetic capture only).
func TestRunWritesValidChromeTrace(t *testing.T) {
	for _, kit := range []string{"classic", "lockfree"} {
		t.Run(kit, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fft.trace.json")
			var stdout bytes.Buffer
			err := run([]string{"-workload", "fft", "-kit", kit, "-threads", "4",
				"-scale", "test", "-out", path}, &stdout)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stdout.String())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.ValidateChrome(data); err != nil {
				t.Fatalf("written trace fails validation: %v", err)
			}
			for _, want := range []string{"wrote " + path, "barrier-wait", "dessim replay"} {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("output lacks %q:\n%s", want, stdout.String())
				}
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-kit", "spinlock"},
		{"-scale", "galactic"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
