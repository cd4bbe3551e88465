package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a layer.
// Spans of one operation share Op; Parent indexes the enclosing span (-1
// for a root).
type span struct {
	Name    string  `json:"name"`
	Op      int64   `json:"op"`
	Parent  int     `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps a traced run's spans in memory. A nil *spanLog records
// nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(on bool) *spanLog {
	if !on {
		return nil
	}
	return &spanLog{t0: time.Now()}
}

// begin opens a span and returns its index (-1 when not recording).
func (l *spanLog) begin(name string, op int64, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0).Seconds() * 1e6
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, StartUS: now, EndUS: now})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	now := time.Since(l.t0).Seconds() * 1e6
	l.mu.Lock()
	l.spans[i].EndUS = now
	l.mu.Unlock()
}

// write saves the spans as JSON to dir/<workload>-seed<seed>.json.
func (l *spanLog) write(dir, workload string, seed int64) error {
	if l == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}
