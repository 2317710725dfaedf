package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"fnpr/internal/server"
)

// maxConns is the generator's connection count: one per core of the
// 2-core machine the load is sized for, never more.
const maxConns = 2

// startServer brings up the service on a loopback ephemeral port and waits
// until /readyz answers 200.
func startServer(cacheEntries int) (*server.Server, string, error) {
	srv := server.New(server.Config{Addr: "127.0.0.1:0", CacheEntries: cacheEntries})
	if err := srv.Start(); err != nil {
		return nil, "", err
	}
	base := "http://" + srv.Addr()
	cl := newClient(base)
	defer cl.close()
	var resp bytes.Buffer
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, err := cl.do("GET", "/readyz", nil, &resp)
		if err == nil && status == http.StatusOK {
			return srv, base, nil
		}
		if time.Now().After(deadline) {
			srv.Close()
			return nil, "", fmt.Errorf("bench: server not ready after 10s (last status %d, error %v)", status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// client is one keep-alive HTTP/1.1 connection to the service, driven
// entirely from the calling goroutine: it writes each request and reads the
// answer itself, with no transport goroutines between the generator and the
// socket. The generator shares the machine with the server, so its own cost
// is part of every number: against net/http's client, this one took serve-hot
// p50 from 0.31 to 0.25 ms and its capacity up by a tenth.
type client struct {
	host string
	conn net.Conn
	br   *bufio.Reader
	head []byte
}

// newClient returns a client for base ("http://host:port"); it dials on
// first use and again after the connection breaks.
func newClient(base string) *client {
	return &client{host: strings.TrimPrefix(base, "http://")}
}

// do sends one request, with body as its JSON content, and reads the whole
// answer into resp.
func (cl *client) do(method, path string, body []byte, resp *bytes.Buffer) (int, error) {
	if cl.conn == nil {
		c, err := net.Dial("tcp", cl.host)
		if err != nil {
			return 0, err
		}
		cl.conn, cl.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	cl.head = fmt.Appendf(cl.head[:0], "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, cl.host, len(body))
	bufs := net.Buffers{cl.head, body}
	_, err := bufs.WriteTo(cl.conn)
	var r *http.Response
	if err == nil {
		r, err = http.ReadResponse(cl.br, nil)
	}
	if err == nil {
		resp.Reset()
		_, err = resp.ReadFrom(r.Body)
		r.Body.Close()
	}
	if err != nil || r.Close {
		cl.close()
	}
	if err != nil {
		return 0, err
	}
	return r.StatusCode, nil
}

// getJSON fetches path and decodes the answer into v.
func (cl *client) getJSON(path string, v any) error {
	var resp bytes.Buffer
	status, err := cl.do("GET", path, nil, &resp)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, status, bytes.TrimSpace(resp.Bytes()))
	}
	return json.Unmarshal(resp.Bytes(), v)
}

func (cl *client) close() {
	if cl.conn != nil {
		cl.conn.Close()
		cl.conn = nil
	}
}

// kept is one answer held back for the checks: the request sent and a
// digest of the answer, so a run holds no bodies in memory.
type kept struct {
	req    request
	answer digest
	// err is set when the answer could not be decoded.
	err error
	rtt time.Duration
}

// serveConn is one generator connection of a serve workload: it rebuilds
// request i from the run's seed, sends it, and keeps a seeded 1-in-16
// sample of the answers for the checks.
type serveConn struct {
	cl      *client
	in      *serveInputs
	seed    int64
	req     request
	path    string
	prepErr error
	body    bytes.Buffer
	resp    bytes.Buffer
	kept    []kept
	// keepAll keeps every answer (the traced sample replays all of them).
	keepAll bool
}

func newServeConn(base string, in *serveInputs, seed int64) *serveConn {
	return &serveConn{cl: newClient(base), in: in, seed: seed}
}

// requestAt is request i of the run: a pure function of (seed, i).
func requestAt(in *serveInputs, seed int64, i int) request {
	return in.pick(slot(seed, i, in.mix), newDraw(seed, 100, i))
}

// checked reports whether request i's answer is in the checked sample.
func checked(seed int64, i int) bool { return newDraw(seed, 101, i).intn(16) == 0 }

func (c *serveConn) prepare(i int) { c.prepareReq(requestAt(c.in, c.seed, i)) }

func (c *serveConn) prepareReq(r request) {
	c.req = r
	c.body.Reset()
	c.path, c.prepErr = c.in.body(r, &c.body)
}

func (c *serveConn) send(i int) bool {
	return c.sendPrepared(c.keepAll || checked(c.seed, i))
}

// sendPrepared posts the prepared body; keep holds the answer back for the
// checks. A transport error or a non-2xx status (a 429 refusal included)
// is a failure.
func (c *serveConn) sendPrepared(keep bool) bool {
	if c.prepErr != nil {
		return false
	}
	start := time.Now()
	status, err := c.cl.do("POST", c.path, c.body.Bytes(), &c.resp)
	rtt := time.Since(start)
	if err != nil || status < 200 || status > 299 {
		return false
	}
	if keep {
		d, err := answerDigest(c.path, c.resp.Bytes())
		c.kept = append(c.kept, kept{req: c.req, answer: d, err: err, rtt: rtt})
	}
	return true
}

func (c *serveConn) close() { c.cl.close() }
