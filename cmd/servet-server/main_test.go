package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestValidateAddrs: the debug listener may share nothing with the
// registry address; empty means no debug listener at all.
func TestValidateAddrs(t *testing.T) {
	cases := []struct {
		addr, debug string
		wantErr     bool
	}{
		{":8077", "", false},
		{":8077", ":8078", false},
		{":8077", "localhost:8078", false},
		{":8077", ":8077", true},
		{"localhost:8077", "localhost:8077", true},
	}
	for _, c := range cases {
		err := validateAddrs(c.addr, c.debug)
		if (err != nil) != c.wantErr {
			t.Errorf("validateAddrs(%q, %q) = %v, wantErr %v", c.addr, c.debug, err, c.wantErr)
		}
	}
}

// TestDebugMux: the debug handler serves the pprof index and nothing
// of the registry API.
func TestDebugMux(t *testing.T) {
	ts := httptest.NewServer(debugMux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ status = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/reports")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("debug mux serves the registry API; it must not")
	}
}

// TestHTTPServerTimeouts: both listeners bound header reads, request
// reads and idle keep-alive connections, and leave writes unbounded
// for the long engine runs behind POST /v1/run and /v1/tune.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", debugMux())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("timeouts unset: header %v, read %v, idle %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("header timeout %v exceeds read timeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("write timeout = %v, want none", srv.WriteTimeout)
	}
}
