package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// client is one closed-loop client: its own transport, so it holds its
// own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
		base: "http://" + addr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte, reqID string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path and decodes a 200 response into v.
func (c *client) getJSON(path string, v any) error {
	status, body, err := c.do("GET", path, nil, "")
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

// result is one timed request as the client saw it. start and end are
// offsets from the start of the timed window, the client's "http" span.
type result struct {
	req        *request
	id         string
	status     int
	body       []byte
	err        error
	start, end time.Duration
}

func (r *result) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

func (r *result) latencyMS() float64 { return float64(r.end-r.start) / float64(time.Millisecond) }

// window runs both clients in a closed loop through their schedules for
// dur: each sends its next request only after the previous one ended, and
// none starts after dur. With traced set, every request carries an
// X-Request-ID. It returns what completed and how long the window lasted,
// up to the end of the last request.
func window(cs [2]*client, sched [2][]request, dur time.Duration, traced bool) ([]result, time.Duration, error) {
	var (
		wg      sync.WaitGroup
		per     [2][]result
		runOut  [2]bool
		t0      = time.Now()
		elapsed time.Duration
		mu      sync.Mutex
	)
	for c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range sched[c] {
				start := time.Since(t0)
				if start >= dur {
					return
				}
				rq := &sched[c][k]
				id := ""
				if traced {
					id = fmt.Sprintf("c%d-%d", c, k)
				}
				status, body, err := cs[c].do(rq.method, rq.path, rq.body, id)
				end := time.Since(t0)
				per[c] = append(per[c], result{req: rq, id: id, status: status, body: body, err: err, start: start, end: end})
				mu.Lock()
				elapsed = max(elapsed, end)
				mu.Unlock()
			}
			runOut[c] = true
		}()
	}
	wg.Wait()
	if runOut[0] || runOut[1] {
		return nil, 0, fmt.Errorf("a client ran out of scheduled requests before %v; lengthen the schedule", dur)
	}
	return append(per[0], per[1]...), elapsed, nil
}

// parallel runs reqs untimed, alternating over the two clients, and fails
// on the first non-2xx response.
func parallel(cs [2]*client, reqs []request) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; k < len(reqs); k += 2 {
				status, body, err := cs[c].do(reqs[k].method, reqs[k].path, reqs[k].body, "")
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm %s %s: %w", reqs[k].method, reqs[k].path, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}
