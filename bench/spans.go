package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval the benchmark recorded around a call into a
// layer. Parent indexes the enclosing span in the same list (-1 for a
// root), so self time is a span's duration minus its children's.
type span struct {
	Workload string `json:"workload"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	DurNS    int64  `json:"dur_ns"`
	Parent   int    `json:"parent"`
}

// spanLog keeps spans in memory; they are written once, when the
// benchmark ends. A nil *spanLog records nothing, so untraced passes call
// the same code.
type spanLog struct {
	epoch    time.Time
	workload string
	spans    []span
	open     []int
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{epoch: time.Now(), workload: workload}
}

// now reports nanoseconds since the log's epoch (0 for a nil log).
func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return time.Since(l.epoch).Nanoseconds()
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (l *spanLog) begin(name, layer string) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{
		Workload: l.workload, Name: name, Layer: layer,
		StartNS: time.Since(l.epoch).Nanoseconds(), Parent: parent,
	})
	i := len(l.spans) - 1
	l.open = append(l.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].DurNS = time.Since(l.epoch).Nanoseconds() - l.spans[i].StartNS
	l.open = l.open[:len(l.open)-1]
}

// adopt appends spans recorded elsewhere (a child process) under the
// innermost open span, shifting them by offset nanoseconds.
func (l *spanLog) adopt(spans []span, offset int64) {
	if l == nil || len(spans) == 0 {
		return
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	base := len(l.spans)
	for _, s := range spans {
		s.StartNS += offset
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// selfNS returns every span's self time: its duration less the part its
// direct children cover. Children never overlap — the benchmark makes its
// calls one after another.
func selfNS(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.DurNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.DurNS
		}
	}
	return self
}

// selfMS sums the self time of the spans with the given name, in ms.
func (l *spanLog) selfMS(name string) float64 {
	var ns int64
	self := selfNS(l.spans)
	for i, s := range l.spans {
		if s.Name == name {
			ns += self[i]
		}
	}
	return float64(ns) / 1e6
}

func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
