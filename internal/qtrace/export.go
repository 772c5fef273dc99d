package qtrace

import (
	"encoding/csv"
	"fmt"
	"io"
)

// intervalHeader is the stable schema of the per-query interval CSV dump.
// The qtrace-smoke CI target validates files against it.
//
// The phase column takes every Phase* constant value, single-server and
// cluster alike (TestPhaseConstantsDocumented pins this list against the
// constants):
//
//   - "queue": GAM scheduling-queue wait — and, on cluster runs, the
//     front-end or shard job's submit-to-first-dispatch wait, with the
//     detail naming the node-local lane ("nodeH", "shardS@nodeR").
//   - "exec": accelerator execution; cluster shard legs use stage
//     "Rerank", level "nearmem+nearstor" and detail "shardS@nodeR" for
//     the whole scatter leg's device time.
//   - "pollgap": device completion to GAM detection (polled tasks).
//   - "xfer": inter-level DMA on one server, and on cluster runs the
//     wire legs — image ingress ("client-nodeH", stage
//     "FeatureExtraction"), scatter ("nodeH-nodeR", stage
//     "ShortlistRetrieval") and response gather ("nodeR-fe", stage
//     "Rerank").
//   - "cache-hit": a query served by the cluster front end without a
//     scatter; detail "fe-cache" is a direct hit, "fe-coalesce" a query
//     coalesced onto an in-flight scatter for the same content.
//
// Cluster runs add the front-end stages to the stage column —
// "FeatureExtraction" for the home-node feature leg, "ShortlistRetrieval"
// for the scatter and "Rerank" for shard execution and gather — next to
// the single-server pipeline stage names.
var intervalHeader = []string{
	"run", "query", "job", "phase", "stage", "level", "detail",
	"start_us", "end_us", "dur_us",
}

// summaryHeader is the stable schema of the per-query summary CSV: one row
// per completed query with its latency and dominant attribution.
var summaryHeader = []string{
	"run", "query", "job", "arrival_us", "done_us", "latency_us",
	"intervals", "dominant_phase", "dominant_stage", "dominant_level",
	"dominant_share",
}

// IntervalCSVHeader returns a copy of the interval CSV schema.
func IntervalCSVHeader() []string { return append([]string(nil), intervalHeader...) }

// SummaryCSVHeader returns a copy of the summary CSV schema.
func SummaryCSVHeader() []string { return append([]string(nil), summaryHeader...) }

// CSVWriter streams one or more runs' query logs as CSV. Interval rows and
// summary rows go to two separate writers because their schemas differ;
// either may be nil to skip that output.
type CSVWriter struct {
	intervals *csv.Writer
	summary   *csv.Writer
	wroteIH   bool
	wroteSH   bool
}

// NewCSVWriter writes interval rows to intervals and per-query summary
// rows to summary (either may be nil).
func NewCSVWriter(intervals, summary io.Writer) *CSVWriter {
	w := &CSVWriter{}
	if intervals != nil {
		w.intervals = csv.NewWriter(intervals)
	}
	if summary != nil {
		w.summary = csv.NewWriter(summary)
	}
	return w
}

// WriteRun appends every query of one run, labelled run in the first
// column, in QueryID order. Headers are written once, before the first
// row of each file.
func (w *CSVWriter) WriteRun(run string, l *Log) error {
	for _, q := range l.Queries() {
		if w.intervals != nil {
			if !w.wroteIH {
				if err := w.intervals.Write(intervalHeader); err != nil {
					return err
				}
				w.wroteIH = true
			}
			for _, iv := range q.Intervals {
				err := w.intervals.Write([]string{
					run,
					fmt.Sprintf("%d", q.ID),
					fmt.Sprintf("%d", q.Job),
					iv.Phase, iv.Stage, iv.Level, iv.Detail,
					fmt.Sprintf("%.3f", iv.Start.Microseconds()),
					fmt.Sprintf("%.3f", iv.End.Microseconds()),
					fmt.Sprintf("%.3f", iv.Duration().Microseconds()),
				})
				if err != nil {
					return err
				}
			}
		}
		if w.summary != nil && q.Completed() {
			if !w.wroteSH {
				if err := w.summary.Write(summaryHeader); err != nil {
					return err
				}
				w.wroteSH = true
			}
			dom := q.Dominant()
			err := w.summary.Write([]string{
				run,
				fmt.Sprintf("%d", q.ID),
				fmt.Sprintf("%d", q.Job),
				fmt.Sprintf("%.3f", q.Arrival.Microseconds()),
				fmt.Sprintf("%.3f", q.Done.Microseconds()),
				fmt.Sprintf("%.3f", q.Latency().Microseconds()),
				fmt.Sprintf("%d", len(q.Intervals)),
				dom.Phase, dom.Stage, dom.Level,
				fmt.Sprintf("%.4f", dom.Share),
			})
			if err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// Flush flushes buffered rows and reports any write error.
func (w *CSVWriter) Flush() error {
	for _, cw := range []*csv.Writer{w.intervals, w.summary} {
		if cw == nil {
			continue
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return err
		}
	}
	return nil
}
