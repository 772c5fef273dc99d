package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// procTimeout bounds every child process, so a hung program fails the
// pass instead of the whole benchmark.
const procTimeout = 150 * time.Second

// env is where a benchmark run finds its programs and writes its files.
type env struct {
	root     string // repository root
	out      string // build outputs and scratch artifacts
	reachsim string // the reachsim binary built from root
	self     string // this binary, re-executed for in-process passes
	seed     int64
	scale    int // divides every in-process workload's query count (-quick)
}

// procResult is one finished child process.
type procResult struct {
	stdout, stderr []byte
	wall, cpu      float64 // host seconds
	rssMB          float64 // peak resident set
}

// runProc runs a program to completion in dir and reports its host cost.
func runProc(dir, name string, args ...string) (procResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var so, se bytes.Buffer
	cmd.Stdout, cmd.Stderr = &so, &se
	t0 := time.Now()
	err := cmd.Run()
	r := procResult{stdout: so.Bytes(), stderr: se.Bytes(), wall: time.Since(t0).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		return r, fmt.Errorf("%s %v: %w: %s", filepath.Base(name), args, err, tail(se.Bytes()))
	}
	return r, nil
}

func tvSeconds(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// tail keeps the end of a child's stderr for an error message.
func tail(b []byte) string {
	const n = 400
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(bytes.TrimSpace(b))
}

// buildReachsim compiles cmd/reachsim from the repository into out.
func buildReachsim(root, out string) (string, error) {
	bin := filepath.Join(out, "reachsim")
	if _, err := runProc(root, "go", "build", "-o", bin, "./cmd/reachsim"); err != nil {
		return "", fmt.Errorf("building reachsim: %w", err)
	}
	return bin, nil
}

// passResult is one pass of one workload.
type passResult struct {
	Values    map[string]float64 // end-to-end metrics
	Layers    map[string]float64 // per-layer metrics, traced passes only
	Digest    string
	Attempted int
	Err       error
}

// pass runs one pass of w. A traced pass additionally profiles the run
// and gathers the workload's per-layer metrics.
func (e *env) pass(w *workloadDef, spans *spanLog, traced bool) passResult {
	s := spans.begin("pass "+w.Name, "bench")
	defer spans.end(s)
	if w.inProcess() {
		return e.clusterPass(w, spans, traced)
	}
	return e.cliPass(w, spans, traced)
}

func (e *env) clusterPass(w *workloadDef, spans *spanLog, traced bool) passResult {
	r := passResult{Attempted: w.Queries / e.scale * len(w.Rungs)}
	args := []string{"-child", w.Name, "-seed", strconv.FormatInt(e.seed, 10),
		"-scale", strconv.Itoa(e.scale), "-root", e.root}
	prof := filepath.Join(e.out, w.Name+"-cpu.pprof")
	if traced {
		args = append(args, "-cpuprofile", prof)
	}
	start := spans.now()
	p, err := runProc(e.root, e.self, args...)
	if err != nil {
		r.Err = err
		return r
	}
	var out clusterOut
	if err := json.Unmarshal(p.stdout, &out); err != nil {
		r.Err = fmt.Errorf("%s pass output: %w", w.Name, err)
		return r
	}
	if out.Completed != out.Submitted || out.Submitted != r.Attempted {
		r.Err = fmt.Errorf("%s: %d of %d submitted queries merged, %d expected",
			w.Name, out.Completed, out.Submitted, r.Attempted)
		return r
	}
	r.Digest = out.Digest
	r.Values = map[string]float64{
		"wall_s":       out.WallS,
		"setup_s":      out.SetupS,
		"cpu_s":        p.cpu,
		"max_rss_mb":   p.rssMB,
		"alloc_mb":     out.AllocMB,
		"events_per_s": ratio(float64(out.Events), out.WallS),
	}
	var rates, p99s []float64
	for _, rung := range out.Rungs {
		if rung.Rate == w.Headline {
			r.Values["sim_p50_ms"] = rung.P50MS
			r.Values["sim_p99_ms"] = rung.P99MS
		}
		rates = append(rates, rung.Rate)
		p99s = append(p99s, rung.P99MS)
	}
	if len(rates) > 1 {
		r.Values["sustainable_qps"], _ = sustainableQPS(rates, p99s, p99LimitMS)
	}
	if traced {
		spans.adopt(out.Spans, start)
		r.Layers = out.Layers
		if err := addProfile(r.Layers, prof); err != nil {
			r.Err = err
		}
	}
	return r
}

func (e *env) cliPass(w *workloadDef, spans *spanLog, traced bool) passResult {
	r := passResult{Attempted: w.Attempted}
	dir, err := os.MkdirTemp(e.out, w.Name+"-")
	if err != nil {
		r.Err = err
		return r
	}
	defer os.RemoveAll(dir)

	setup, err := e.reachsimSetup(spans)
	if err != nil {
		r.Err = err
		return r
	}
	args := w.Args(dir)
	prof := filepath.Join(dir, "cpu.pprof")
	if traced {
		args = append(args, "-cpuprofile", prof)
	}
	s := spans.begin("reachsim "+w.Name, "cmd")
	p, err := runProc(dir, e.reachsim, args...)
	spans.end(s)
	if err != nil {
		r.Err = err
		return r
	}
	c, err := w.Check(p.stdout, dir)
	if err != nil {
		r.Err = fmt.Errorf("%s: %w", w.Name, err)
		return r
	}
	r.Digest = c.Digest
	r.Values = map[string]float64{
		"wall_s":     p.wall,
		"setup_s":    setup,
		"cpu_s":      p.cpu,
		"max_rss_mb": p.rssMB,
	}
	if c.Events > 0 {
		r.Values["events_per_s"] = c.Events / p.wall
	}
	for k, v := range c.Values {
		r.Values[k] = v
	}
	if traced {
		r.Layers = map[string]float64{}
		if err := addProfile(r.Layers, prof); err != nil {
			r.Err = err
			return r
		}
		if w.Name == "cluster-observed" {
			r.Layers["obs.metrics_csv_mb"] = dirMB(filepath.Join(dir, "m.csv"))
			r.Layers["obs.trace_json_mb"] = dirMB(filepath.Join(dir, "t.json"))
			r.Layers["obs.bundle_mb"] = dirMB(filepath.Join(dir, "flight"))
		}
	}
	return r
}

// reachsimSetup times the CLI workloads' set-up: starting reachsim and
// listing its experiments, which runs every package initialiser.
func (e *env) reachsimSetup(spans *spanLog) (float64, error) {
	s := spans.begin("reachsim -list", "cmd")
	defer spans.end(s)
	var walls []float64
	for i := 0; i < setupReps; i++ {
		p, err := runProc(e.root, e.reachsim, "-list")
		if err != nil {
			return 0, err
		}
		if !bytes.Contains(p.stdout, []byte("table1")) {
			return 0, fmt.Errorf("reachsim -list does not list table1")
		}
		walls = append(walls, p.wall)
	}
	return median(walls), nil
}
