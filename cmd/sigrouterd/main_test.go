package main

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"graphsig/internal/daemon"
)

// TestDebugMuxRoutesPprof: -debug-addr serves http.DefaultServeMux, on
// which the blank net/http/pprof import registers the profiling routes.
func TestDebugMuxRoutesPprof(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil)
	if _, pattern := http.DefaultServeMux.Handler(req); !strings.HasSuffix(pattern, "/debug/pprof/cmdline") {
		t.Fatalf("http.DefaultServeMux routes /debug/pprof/cmdline to %q", pattern)
	}
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), os.Args[0]) {
		t.Fatalf("GET /debug/pprof/cmdline = %d %q", rec.Code, rec.Body.String())
	}
}

// TestFlagsHaveSetters is the flag audit: every flag is a deployment
// setting listed here with its reason, or some command line or
// back-ticked span in the docs, the Makefile, the scripts or the skills
// sets it; every command line there uses only flags the router has. A
// flag nothing sets becomes a constant.
func TestFlagsHaveSetters(t *testing.T) {
	table := map[string]string{
		"addr":       "listen address",
		"debug-addr": "pprof listen address",
		"shard":      "peers: each shard's primary",
		"follower":   "peers: each shard's replicas",
	}
	problems, err := daemon.AuditFlags(func() *flag.FlagSet { return flags(new(options)) }, table, "../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestShardFlagRefusesAddressList: -shard names one primary. A second
// address would be a second failover path beside -follower, one that
// marks nothing stale, so a comma is refused with a pointer there.
func TestShardFlagRefusesAddressList(t *testing.T) {
	var s shardList
	if err := s.Set("http://10.0.0.1:8787,http://10.0.0.1:8788"); err == nil || !strings.Contains(err.Error(), "-follower") {
		t.Fatalf("-shard a,b: err %v, want a refusal naming -follower", err)
	}
	if err := s.Set(" "); err == nil {
		t.Fatal("empty -shard accepted")
	}
	if err := s.Set("http://10.0.0.1:8787"); err != nil || len(s) != 1 || len(s[0]) != 1 {
		t.Fatalf("-shard a: %v, shards %v", err, s)
	}
}
