// kernel_designer walks the accelerator-template authoring flow of the
// paper's §III-A: describe a kernel as a loop nest, estimate its synthesis
// outcome (II, depth, resources, frequency — the Table III columns) with
// the HLS estimator, explore the unroll/partition design space, and deploy
// the best variant on a near-memory instance of the simulated hierarchy.
//
//	go run ./examples/kernel_designer
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/fpga"
	"repro/internal/hls"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	fmt.Fprintln(w, "design space: tiled fp32 GeMM on Zynq UltraScale+ (near-memory AIM module)")
	fmt.Fprintf(w, "%8s %4s %6s %9s %9s %9s %10s %6s\n",
		"unroll", "II", "depth", "freq MHz", "DSP %", "BRAM %", "GMAC/s", "fits")

	type variant struct {
		unroll int
		est    *hls.Estimate
		gmacs  float64
	}
	var best *variant
	for _, unroll := range []int{4, 8, 16, 32, 64, 128} {
		k := hls.Kernel{
			Name:  "gemm-tile",
			Class: fpga.GeMM,
			Loops: []hls.Loop{
				{Name: "m", Trip: 1024},
				{Name: "n", Trip: 1024, Unroll: unroll},
				{Name: "k", Trip: 96},
			},
			Ops: hls.OpCounts{MACs: 1, MemReads: 2, MemWrites: 1},
			Buffers: []hls.Buffer{
				{Name: "a", Bytes: 96 * 1024 * 4, Partitions: unroll, AccessesPerIter: 1},
				{Name: "b", Bytes: 96 * 1024 * 4, Partitions: unroll, AccessesPerIter: 1},
				{Name: "c", Bytes: 1024 * 4, Partitions: unroll, AccessesPerIter: 1},
			},
			StreamBytesPerIter: 4, // one fp32 operand streamed per MAC lane
			TargetMHz:          300,
		}
		est, err := hls.Analyze(k, fpga.ZynqZCU9)
		if err != nil {
			return err
		}
		gmacs := float64(unroll) / float64(est.II) * est.FreqMHz * 1e6 / 1e9
		fmt.Fprintf(w, "%8d %4d %6d %9.0f %9.0f %9.0f %10.1f %6v\n",
			unroll, est.II, est.Depth, est.FreqMHz,
			est.Util.DSP, est.Util.BRAM, gmacs, est.Fits)
		if est.Fits && (best == nil || gmacs > best.gmacs) {
			best = &variant{unroll: unroll, est: est, gmacs: gmacs}
		}
	}
	if best == nil {
		return errors.New("no variant fits the device")
	}

	fmt.Fprintf(w, "\nselected: unroll %d (%.1f GMAC/s) — generating accelerator template\n",
		best.unroll, best.gmacs)
	tpl, err := best.est.Template("GEMM-DESIGNED-ZCU9", 5.0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "template %q: %v MHz, II=%d, depth=%d, util ff=%.0f%% lut=%.0f%% dsp=%.0f%% bram=%.0f%%\n",
		tpl.Name, tpl.FreqMHz, tpl.II, tpl.Depth,
		tpl.Util.FF, tpl.Util.LUT, tpl.Util.DSP, tpl.Util.BRAM)

	// A designed template slots straight into the registry used by the
	// ReACH runtime (RegisterAcc resolves it like any Table III kernel).
	reg := fpga.NewRegistry()
	if err := reg.Register(tpl); err != nil {
		return err
	}
	shortlist := tpl.Duration(16*96*1000, 2_200_000_000/4)
	fmt.Fprintf(w, "estimated shortlist-retrieval shard time on this kernel: %v\n", shortlist)
	return nil
}
