package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"
)

// httpConn is a minimal HTTP/1.1 keep-alive client for GET requests,
// one request at a time on one connection, allocation-free once warm.
// The load generator shares the process and its two CPUs with the server
// it measures; net/http's client costs about as much CPU per request as
// the server and its garbage drives the process's GC, which halved the
// capacity measured for a trivial handler (25k instead of 40k req/s).
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
}

// requestTimeout bounds one request; the server's own deadline (5 s)
// answers first unless the connection is stuck.
const requestTimeout = 10 * time.Second

// get sends GET path with an optional extra header line (without CRLF)
// and reads the response. body stays valid until the next call. After
// an error the connection is closed and the next call redials.
func (h *httpConn) get(path []byte, header string) (status int, cache string, body []byte, err error) {
	if h.c == nil {
		if h.c, err = net.Dial("tcp", h.addr); err != nil {
			return 0, "", nil, err
		}
		h.br = bufio.NewReaderSize(h.c, 64<<10)
	}
	h.req = append(h.req[:0], "GET "...)
	h.req = append(h.req, path...)
	h.req = append(h.req, " HTTP/1.1\r\nHost: perf\r\n"...)
	if header != "" {
		h.req = append(h.req, header...)
		h.req = append(h.req, "\r\n"...)
	}
	h.req = append(h.req, "\r\n"...)
	closing := false
	if err = h.c.SetDeadline(time.Now().Add(requestTimeout)); err == nil {
		if _, err = h.c.Write(h.req); err == nil {
			status, cache, closing, err = h.readResponse()
		}
	}
	if err != nil || closing {
		h.close()
	}
	if err != nil {
		return 0, "", nil, err
	}
	return status, cache, h.body, nil
}

func (h *httpConn) close() {
	if h.c != nil {
		_ = h.c.Close() // the connection is being discarded after an error or at the end
		h.c = nil
	}
}

// readResponse parses a status line, the headers it needs and the body,
// framed by Content-Length or chunked encoding, into h.body. closing
// reports that the server will close the connection after it.
func (h *httpConn) readResponse() (status int, cache string, closing bool, err error) {
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return 0, "", false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, "", false, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = parseNum(line[9:12], 10); err != nil {
		return 0, "", false, err
	}
	length, chunked := -1, false
	for {
		if line, err = h.br.ReadSlice('\n'); err != nil {
			return 0, "", false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = parseNum(value, 10); err != nil {
				return 0, "", false, err
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("X-Cache")):
			cache = cacheLabel(value)
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	h.body = h.body[:0]
	switch {
	case chunked:
		err = h.readChunked()
	case length >= 0:
		err = h.readN(length)
	default:
		err = errors.New("response has neither a Content-Length nor chunked encoding")
	}
	return status, cache, closing, err
}

func (h *httpConn) readChunked() error {
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := parseNum(size, 16)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if err := h.readN(n); err != nil {
			return err
		}
		if _, err := h.br.Discard(2); err != nil { // the chunk's CRLF
			return err
		}
	}
	for { // trailers end at an empty line
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(bytes.TrimRight(line, "\r\n")) == 0 {
			return nil
		}
	}
}

// readN appends the next n body bytes to h.body.
func (h *httpConn) readN(n int) error {
	start := len(h.body)
	h.body = slices.Grow(h.body, n)[:start+n]
	_, err := io.ReadFull(h.br, h.body[start:])
	return err
}

// parseNum parses a non-negative integer in the given base.
func parseNum(b []byte, base int) (int, error) {
	if len(b) == 0 || len(b) > 12 {
		return 0, fmt.Errorf("bad number %q", b)
	}
	n := 0
	for _, c := range b {
		var d int
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = int(c-'A') + 10
		default:
			d = base
		}
		if d >= base {
			return 0, fmt.Errorf("bad number %q", b)
		}
		n = n*base + d
	}
	return n, nil
}

// cacheLabel maps an X-Cache value to a constant, so recording it does
// not allocate.
func cacheLabel(v []byte) string {
	for _, s := range []string{"hit", "miss", "coalesced"} {
		if string(v) == s {
			return s
		}
	}
	return "other"
}
