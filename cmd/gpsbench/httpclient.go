package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
)

// httpConn is the load generator's client: one keep-alive HTTP/1.1
// connection, requests written from pre-built bytes, responses read into
// reused buffers. http.Client would work, but client and server share
// this process and its counters, and the generator's own cost per
// request should be small and fixed.
type httpConn struct {
	c   net.Conn
	br  *bufio.Reader
	req []byte // scratch for the outgoing request

	// The last response.
	status int
	etag   []byte
	body   []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *httpConn) close() { h.c.Close() }

// requestHead builds the reusable part of a GET: everything but the
// optional validator and the blank line.
func requestHead(target string) []byte {
	return []byte("GET " + target + " HTTP/1.1\r\nHost: gpsbench\r\n")
}

// get sends one request and reads its response. With revalidate, the
// connection's last ETag goes along as If-None-Match.
func (h *httpConn) get(head []byte, revalidate bool) error {
	h.req = append(h.req[:0], head...)
	if revalidate && len(h.etag) > 0 {
		h.req = append(h.req, "If-None-Match: "...)
		h.req = append(h.req, h.etag...)
		h.req = append(h.req, "\r\n"...)
	}
	h.req = append(h.req, "\r\n"...)
	if _, err := h.c.Write(h.req); err != nil {
		return err
	}
	return h.readResponse()
}

func (h *httpConn) readResponse() error {
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return fmt.Errorf("malformed status line %q", line)
	}
	if h.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		if line, err = h.br.ReadSlice('\n'); err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		i := bytes.IndexByte(line, ':')
		if i < 0 {
			return fmt.Errorf("malformed header line %q", line)
		}
		key, val := line[:i], bytes.TrimSpace(line[i+1:])
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil || length < 0 {
				return fmt.Errorf("malformed Content-Length %q", val)
			}
		case bytes.EqualFold(key, []byte("ETag")):
			h.etag = append(h.etag[:0], val...)
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		}
	}
	h.body = h.body[:0]
	switch {
	case h.status == 304 || h.status == 204 || h.status/100 == 1:
		return nil
	case chunked:
		return h.readChunks()
	case length >= 0:
		return h.readBody(length)
	}
	return fmt.Errorf("response with neither Content-Length nor chunked encoding")
}

// readBody appends n bytes of the stream to the body.
func (h *httpConn) readBody(n int) error {
	at := len(h.body)
	if cap(h.body) < at+n {
		grown := make([]byte, at, 2*(at+n))
		copy(grown, h.body)
		h.body = grown
	}
	h.body = h.body[:at+n]
	_, err := io.ReadFull(h.br, h.body[at:])
	return err
}

func (h *httpConn) readChunks() error {
	for {
		line, err := h.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 31)
		if err != nil {
			return fmt.Errorf("malformed chunk size %q", line)
		}
		if size == 0 {
			// No trailers are sent; the blank line ends the body.
			_, err = h.br.ReadSlice('\n')
			return err
		}
		if err := h.readBody(int(size)); err != nil {
			return err
		}
		if _, err := h.br.Discard(2); err != nil {
			return err
		}
	}
}

// etagEpoch parses the epoch out of the server's validator,
// "gps-epoch-N" in quotes.
func etagEpoch(etag []byte) (int, bool) {
	const prefix = `"gps-epoch-`
	if !bytes.HasPrefix(etag, []byte(prefix)) || !bytes.HasSuffix(etag, []byte(`"`)) {
		return 0, false
	}
	n, err := strconv.Atoi(string(etag[len(prefix) : len(etag)-1]))
	return n, err == nil
}
