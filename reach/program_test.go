package reach

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// twoHostStreams encodes, in decodeProgram's format, a program with two
// 64 MiB host streams, CPU→OnChip and CPU→NearMem, each feeding one GEMM
// of 1e9 MACs that streams 64 MiB.
var twoHostStreams = []byte{
	1,     // two host streams
	0, 63, // CPU→OnChip, 64 MiB
	1, 63, // CPU→NearMem, 64 MiB
	1,                       // two ACCs
	0, 0, 0, 0, 1, 9, 64, 0, // host stream 0, pin 0, GEMM, 1e9 MACs, 64 MiB
	2, 0, 0, 0, 1, 9, 64, 0, // host stream 1, pin 0, GEMM, 1e9 MACs, 64 MiB
	0, // one batch
}

// programRun is what one run of a decoded program produced.
type programRun struct {
	latencies []sim.Time
	finished  []sim.Time
	energy    map[string]float64
}

// decodeProgram builds a Listings-style program from fuzz bytes on a
// default system, runs its batches and reports the outcome; ok is false
// when the reach API rejected the program. Bytes are read in order and
// read as 0 once the input runs out:
//
//   - host streams − 1 (mod 3), then per stream its destination level
//     (mod 3: OnChip, NearMem, NearStor) and its size in MiB − 1 (mod 64);
//   - ACCs − 1 (mod 4), then per ACC eight bytes: its input, level, input
//     stream size in MiB − 1 (mod 64), pin (mod 4), template class (mod 3:
//     CNN, GEMM, KNN), MACs in units of 1e8 − 1, streamed MiB (mod 65)
//     and flags. An even input, or any input of the first ACC, feeds ACC k
//     host stream input/2 and places it at that stream's level; an odd one
//     feeds it a new stream from ACC (input/2) mod k, placed at the level
//     byte's level with the size byte's size. Flag bits 0–2 set Random,
//     FromStorage and SPMResident, bit 3 sinks the ACC's output to the
//     host, and bits 4–5 (mod 3) pick the type of a stream from another
//     ACC;
//   - batches − 1 (mod 3). Each batch enqueues every host stream once,
//     then executes every ACC in order.
func decodeProgram(data []byte) (run programRun, ok bool) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	levels := []Level{OnChip, NearMem, NearStor}
	s, err := NewSystem()
	if err != nil {
		return run, false
	}
	hosts := make([]*Stream, 1+next(3))
	for i := range hosts {
		dst := levels[next(3)]
		if hosts[i], err = s.CreateStream(fmt.Sprintf("in%d", i), CPU, dst, Pair, int64(1+next(64))<<20); err != nil {
			return run, false
		}
	}
	accs := make([]*ACC, 1+next(4))
	for k := range accs {
		input, level, size := next(256), levels[next(3)], int64(1+next(64))<<20
		pin, class, macs, mib, flags := next(4), next(3), float64(1+next(256))*1e8, int64(next(65)), next(256)
		in := hosts[input/2%len(hosts)]
		if k > 0 && input%2 == 1 {
			producer := accs[input/2%k]
			typ := []StreamType{Pair, BroadCast, Collect}[(flags>>4&3)%3]
			if in, err = s.CreateStream(fmt.Sprintf("s%d", k), producer.Level, level, typ, size); err != nil {
				return run, false
			}
			if err := producer.SetOutput(1+k, in); err != nil {
				return run, false
			}
		}
		device := "ZCU9"
		if in.Dst == OnChip {
			device = "VU9P"
		}
		a, err := s.RegisterAccAt([]string{"CNN", "GEMM", "KNN"}[class]+"-"+device, in.Dst, pin)
		if err != nil {
			return run, false
		}
		if err := a.SetInput(0, in); err != nil {
			return run, false
		}
		if flags&8 != 0 {
			sink, err := s.CreateStream(fmt.Sprintf("out%d", k), in.Dst, CPU, Collect, 4096)
			if err != nil {
				return run, false
			}
			if err := a.SetArg(1, sink); err != nil {
				return run, false
			}
		}
		a.SetWork(Work{
			Stage: fmt.Sprintf("acc%d", k), MACs: macs, StreamBytes: mib << 20,
			Random: flags&1 != 0, FromStorage: flags&2 != 0, SPMResident: flags&4 != 0,
		})
		accs[k] = a
	}
	if err := s.Deploy(); err != nil {
		return run, false
	}
	jobs := make([]*Job, 1+next(3))
	for i := range jobs {
		if jobs[i], err = s.Begin(); err != nil {
			return run, false
		}
		for _, st := range hosts {
			if err := jobs[i].Enqueue(st); err != nil {
				return run, false
			}
		}
		for _, a := range accs {
			if err := jobs[i].Execute(a); err != nil {
				return run, false
			}
		}
		if err := jobs[i].Commit(); err != nil {
			return run, false
		}
	}
	s.Run()
	for _, j := range jobs {
		run.latencies = append(run.latencies, j.Latency())
		run.finished = append(run.finished, j.FinishedAt())
	}
	run.energy = s.Energy()
	return run, true
}

// A job with two host-sourced streams issues their DMAs in stream-creation
// order, so the same program always takes the same time: CPU→OnChip
// first, then CPU→NearMem, which reads 17.3531 ms (the other order reads
// 16.9485 ms).
func TestCommitIssuesHostInputsInCreationOrder(t *testing.T) {
	seen := map[sim.Time]int{}
	for i := 0; i < 40; i++ {
		run, ok := decodeProgram(twoHostStreams)
		if !ok {
			t.Fatal("two-stream program rejected")
		}
		seen[run.latencies[0]]++
	}
	if len(seen) != 1 || seen[17353132344*sim.Picosecond] != 40 {
		t.Fatalf("40 runs of one program gave latencies %v, want 17.3531ms every time", seen)
	}
}

// FuzzReachProgram builds random Listings-style programs (decodeProgram)
// and runs each twice in-process: every batch's latency and completion
// time and every energy component must match bit for bit. Programs the
// API rejects are skipped.
func FuzzReachProgram(f *testing.F) {
	f.Add(twoHostStreams)
	f.Fuzz(func(t *testing.T, data []byte) {
		first, ok := decodeProgram(data)
		if !ok {
			t.Skip("program rejected")
		}
		second, ok := decodeProgram(data)
		if !ok {
			t.Fatal("program accepted, then rejected")
		}
		for i, l := range first.latencies {
			if first.finished[i] == 0 {
				t.Fatalf("batch %d did not complete", i)
			}
			if l != second.latencies[i] || first.finished[i] != second.finished[i] {
				t.Fatalf("batch %d: latency %v then %v, finished %v then %v",
					i, l, second.latencies[i], first.finished[i], second.finished[i])
			}
		}
		for c, j := range first.energy {
			if math.Float64bits(j) != math.Float64bits(second.energy[c]) {
				t.Fatalf("%s energy %v J then %v J", c, j, second.energy[c])
			}
		}
	})
}
