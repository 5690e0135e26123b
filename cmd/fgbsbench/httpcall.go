package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"
)

// now is the benchmark's one wall-clock read; every timestamp it
// records comes from here.
func now() time.Time {
	//fgbs:allow determinism elapsed wall time is the benchmark's product; no answer byte depends on it
	return time.Now()
}

// pause waits d or until ctx ends: the pacing of the job poll.
func pause(ctx context.Context, d time.Duration) {
	//fgbs:allow determinism job polling waits on the wall clock; what the poll reads, not when, decides every checked byte
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// recorder is a reusable http.ResponseWriter: reset keeps the header
// map and body buffer, so a timed loop adds no allocations of its own
// to what the handler does.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// cacheHit reports the X-Cache header of the last response.
func (r *recorder) cacheHit() bool {
	v := r.hdr["X-Cache"]
	return len(v) == 1 && v[0] == "hit"
}

// call is one in-process HTTP exchange, built once and replayed: the
// request, its body reader and the recorder are all reused, and the
// handler runs on the calling goroutine.
type call struct {
	req     *http.Request
	payload []byte
	body    *bytes.Reader
	rec     recorder
}

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

func newCall(ctx context.Context, method, path string, payload []byte) (*call, error) {
	req, err := http.NewRequestWithContext(ctx, method, "http://fgbsd"+path, nil)
	if err != nil {
		return nil, fmt.Errorf("building %s %s: %w", method, path, err)
	}
	c := &call{req: req, payload: payload, rec: recorder{hdr: make(http.Header)}}
	if payload != nil {
		c.body = bytes.NewReader(payload)
		req.Body = nopCloser{c.body}
		req.ContentLength = int64(len(payload))
	}
	return c, nil
}

// do serves the request through h into the recorder.
func (c *call) do(h http.Handler) {
	if c.body != nil {
		c.body.Reset(c.payload)
	}
	c.rec.reset()
	h.ServeHTTP(&c.rec, c.req)
}

// matches reports whether the last response is a 200 with exactly the
// expected body.
func (c *call) matches(want []byte) bool {
	return c.rec.status == http.StatusOK && bytes.Equal(c.rec.body.Bytes(), want)
}

// describe summarizes the last response for a failure note.
func (c *call) describe() string {
	b := c.rec.body.Bytes()
	if len(b) > 120 {
		b = b[:120]
	}
	return fmt.Sprintf("%s %s: status %d, %d body bytes %q", c.req.Method, c.req.URL.Path, c.rec.status, c.rec.body.Len(), b)
}
