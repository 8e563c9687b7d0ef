// Package span is the record the traced run writes: one line of JSON per
// span, shared by the traced host (server side) and the benchmark (client
// side), so both ends of a request can be joined by request id.
package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Span is one timed interval of one request. Start and End are
// nanoseconds on the recording process's own monotonic clock, so only
// durations and intervals from the same process are comparable.
//
// Calls made many times per request (store.Get, the EndpointDists
// supplier) are folded into one span per request: Count is the number
// of calls and End-Start is their summed duration, starting at the
// first call.
type Span struct {
	Req    string `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Tag refines Name: "build" or "hit" on store.Artifacts, the
	// endpoint pattern on serve.
	Tag   string `json:"tag,omitempty"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	Count int    `json:"count,omitempty"`
	// Status and Bytes describe the response, on serve and http spans.
	Status int   `json:"status,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Write writes spans to path, one JSON object per line.
func Write(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// Read reads a file Write produced.
func Read(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Span
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("read spans %s: %w", path, err)
		}
		out = append(out, s)
	}
}

// Runtime is the traced host's GET /bench/runtime payload: cumulative
// runtime/metrics counters of the host process, and the store.Get sums.
type Runtime struct {
	AllocBytes uint64  `json:"allocBytes"`
	GCCPU      float64 `json:"gcCpuSeconds"`
	TotalCPU   float64 `json:"totalCpuSeconds"`
	IdleCPU    float64 `json:"idleCpuSeconds"`
	GetNanos   int64   `json:"getNanos"`
	GetCalls   int64   `json:"getCalls"`
}
