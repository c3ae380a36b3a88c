package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
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
