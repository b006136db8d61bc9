package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestHTTPConn(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789"), 1000) // past net/http's 2 KB buffer, so chunked
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			w.Header().Set("X-Cache", "hit")
			w.Write([]byte("hello"))
		case "/big":
			w.Header().Set("X-Cache", "miss")
			w.Write(big)
		case "/close":
			w.Header().Set("Connection", "close")
			w.Write([]byte("bye"))
		case "/header":
			w.Write([]byte(r.Header.Get(spanHeader)))
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()
	c := httpConn{addr: ts.Listener.Addr().String()}
	defer c.close()
	for _, tc := range []struct {
		path, header string
		status       int
		cache        string
		body         []byte
	}{
		{"/small", "", 200, "hit", []byte("hello")},
		{"/big", "", 200, "miss", big},
		{"/small", "", 200, "hit", []byte("hello")},
		{"/close", "", 200, "", []byte("bye")},
		{"/small", "", 200, "hit", []byte("hello")}, // redials after the server closed
		{"/header", spanHeader + ": 7.9", 200, "", []byte("7.9")},
		{"/nope", "", 404, "", []byte("404 page not found\n")},
	} {
		status, cache, body, err := c.get([]byte(tc.path), tc.header)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		if status != tc.status || cache != tc.cache || !bytes.Equal(body, tc.body) {
			t.Errorf("GET %s = %d %q %.40q, want %d %q %.40q", tc.path, status, cache, body, tc.status, tc.cache, tc.body)
		}
	}
}

func TestParseNum(t *testing.T) {
	for _, tc := range []struct {
		in   string
		base int
		want int
		ok   bool
	}{
		{"200", 10, 200, true},
		{"1f4", 16, 500, true},
		{"0", 16, 0, true},
		{"", 10, 0, false},
		{"12a", 10, 0, false},
		{"-1", 10, 0, false},
		{"1234567890123", 10, 0, false},
	} {
		got, err := parseNum([]byte(tc.in), tc.base)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseNum(%q, %d) = %d, %v; want %d, ok=%v", tc.in, tc.base, got, err, tc.want, tc.ok)
		}
	}
}
