package main

import (
	"net/http"
	"testing"
)

// TestStartDebugServesPprof checks the -debug-addr listener answers the
// profiling surface on its own loopback port.
func TestStartDebugServesPprof(t *testing.T) {
	dbg, base, err := startDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()
	resp, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}
}

func TestParsePeers(t *testing.T) {
	got, err := parsePeers("b=http://h2:8724/, c=http://h3:8724")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["b"] != "http://h2:8724" || got["c"] != "http://h3:8724" {
		t.Fatalf("parsePeers = %v", got)
	}
	for _, bad := range []string{"b", "b=", "=http://h2:8724", "b=http://h2:8724,c"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted an entry that is not id=url", bad)
		}
	}
}
