package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a module's public
// function. Spans of one request share a root through Parent.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; later ones are only counted.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced phases run.
type tracer struct {
	t0      time.Time
	next    atomic.Uint64
	dropped atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id allocates a span id, so children can name their parent before the
// parent's span is complete.
func (tr *tracer) id() uint64 {
	if tr == nil {
		return 0
	}
	return tr.next.Add(1)
}

// add records the span id (from tr.id) that ran from start to end.
func (tr *tracer) add(id, parent uint64, name string, start, end time.Time) {
	if tr == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(tr.t0)), End: int64(end.Sub(tr.t0))}
	tr.mu.Lock()
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, s)
	} else {
		tr.dropped.Add(1)
	}
	tr.mu.Unlock()
}

// leaf records a span with a fresh id that ran from start until now.
func (tr *tracer) leaf(parent uint64, name string, start time.Time) {
	if tr == nil {
		return
	}
	tr.add(tr.id(), parent, name, start, time.Now())
}

func (tr *tracer) count() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

// write stores the spans as JSON lines, after one line describing the run,
// under .bench_build/traces in the working directory, and returns the path.
func (tr *tracer) write(cfg config, env envInfo) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	tr.mu.Lock()
	err = enc.Encode(map[string]any{"env": env, "spans": len(tr.spans), "dropped": tr.dropped.Load()})
	for i := 0; err == nil && i < len(tr.spans); i++ {
		err = enc.Encode(tr.spans[i])
	}
	tr.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
