// logscan deploys a different application on the same ReACH hierarchy: a
// grep-style scan-and-filter over a large log store — the "streaming-like,
// IO-intensive, simple task" class the paper identifies as the natural
// near-storage workload (§II-C). It registers a custom SCAN accelerator
// template through the public API and compares running the scan on the
// on-chip accelerator (logs hauled across the host IO interface) against
// near-storage instances (scan pushed to the SSDs, only matches move).
//
//	go run ./examples/logscan
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/reach"
)

const (
	logStoreBytes = 512e9 // 512 GB of logs across the array
	matchBytes    = 64e6  // ~0.01% selectivity: 64 MB of matches
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	fmt.Fprintln(w, "log-scan on ReACH: on-chip vs near-storage filtering")
	fmt.Fprintf(w, "log store: %.0f GB on 4 SSDs; matches: %.0f MB (reduction %.0fx)\n\n",
		logStoreBytes/1e9, matchBytes/1e6, logStoreBytes/matchBytes)

	onchip, err := scan(reach.OnChip)
	if err != nil {
		return err
	}
	nearstor, err := scan(reach.NearStor)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-14s %14s %14s\n", "deployment", "scan time (s)", "energy (J)")
	fmt.Fprintf(w, "%-14s %14.2f %14.1f\n", "on-chip", onchip.seconds, onchip.energy)
	fmt.Fprintf(w, "%-14s %14.2f %14.1f\n", "near-storage", nearstor.seconds, nearstor.energy)
	fmt.Fprintf(w, "\nnear-storage speedup: %.1fx, energy reduction: %.0f%%\n",
		onchip.seconds/nearstor.seconds,
		(1-nearstor.energy/onchip.energy)*100)
	return nil
}

type result struct {
	seconds float64
	energy  float64
}

// scan runs the whole log scan at one level and reports its latency and
// energy.
func scan(level reach.Level) (*result, error) {
	sys, err := reach.NewSystem(reach.WithInstances(1, 0, 4))
	if err != nil {
		return nil, err
	}

	// A custom scan kernel: trivially small datapath, pure streaming —
	// registered once per device class (§III-A's template story).
	if err := sys.RegisterTemplate(reach.TemplateSpec{
		Name: "SCAN-VU9P", FreqMHz: 250, PowerW: 6,
		FF: 4, LUT: 5, DSP: 1, BRAM: 8,
		MACsPerCycle: 8, StreamBytesPerCycle: 64, II: 1, Depth: 16,
	}); err != nil {
		return nil, err
	}
	if err := sys.RegisterTemplate(reach.TemplateSpec{
		Name: "SCAN-ZCU9", Embedded: true, FreqMHz: 180, PowerW: 2.2,
		FF: 8, LUT: 10, DSP: 2, BRAM: 12,
		MACsPerCycle: 4, StreamBytesPerCycle: 96, II: 1, Depth: 12,
	}); err != nil {
		return nil, err
	}

	matches, err := sys.CreateStream("Matches", level, reach.CPU, reach.Collect, matchBytes)
	if err != nil {
		return nil, err
	}

	var accs []*reach.ACC
	instances := 1
	template := "SCAN-VU9P"
	if level == reach.NearStor {
		instances = 4
		template = "SCAN-ZCU9"
	}
	for i := 0; i < instances; i++ {
		var acc *reach.ACC
		if level == reach.NearStor {
			acc, err = sys.RegisterAcc(template, reach.NearStor)
			if err != nil {
				return nil, err
			}
			shard, err := sys.CreateFixedBufferAt(fmt.Sprintf("logs%d", i), reach.NearStor,
				int64(logStoreBytes)/int64(instances), i)
			if err != nil {
				return nil, err
			}
			if err := acc.SetArg(0, shard); err != nil {
				return nil, err
			}
		} else {
			acc, err = sys.RegisterAcc(template, reach.OnChip)
			if err != nil {
				return nil, err
			}
		}
		if err := acc.SetOutput(1, matches); err != nil {
			return nil, err
		}
		acc.SetWork(reach.Work{
			Stage:       "LogScan",
			MACs:        logStoreBytes / 64 / float64(instances), // one comparison per word
			StreamBytes: int64(logStoreBytes) / int64(instances),
			FromStorage: true, // the log store lives on the SSDs everywhere
			OutputBytes: int64(matchBytes) / int64(instances),
		})
		accs = append(accs, acc)
	}

	if err := sys.Deploy(); err != nil {
		return nil, err
	}
	j, err := sys.Begin()
	if err != nil {
		return nil, err
	}
	for _, acc := range accs {
		if err := j.Execute(acc); err != nil {
			return nil, err
		}
	}
	if err := j.Collect(matches); err != nil {
		return nil, err
	}
	if err := j.Commit(); err != nil {
		return nil, err
	}
	sys.Run()
	return &result{seconds: j.Latency().Seconds(), energy: sys.TotalEnergy()}, nil
}
