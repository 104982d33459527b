package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPFlagServesMetrics drives the mux the -http flag serves
// (http.DefaultServeMux): /metrics renders the Default registry beside
// net/http/pprof, and /debug/vars is not served.
func TestHTTPFlagServesMetrics(t *testing.T) {
	C("obs_test.http_flag_probe").Add(1)
	ts := httptest.NewServer(http.DefaultServeMux)
	defer ts.Close()
	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("/metrics Content-Type = %q, want %q", ct, PromContentType)
	}
	if !strings.Contains(body, "\nhamlet_obs_test_http_flag_probe 1\n") {
		t.Errorf("/metrics is missing the registry counter:\n%s", body)
	}
	if resp, _ := get("/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	if resp, _ := get("/debug/vars"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars = %d, want 404", resp.StatusCode)
	}
}
