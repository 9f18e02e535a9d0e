// Tracereplay: record an instruction trace once (the ATOM methodology of
// the paper), then replay the recording through differently-sized
// LET/LIT configurations without re-executing the program — the way one
// actually sweeps hardware parameters over a fixed trace.
package main

import (
	"fmt"
	"log"
	"os"

	"dynloop"
	"dynloop/internal/report"
)

func main() {
	bm, err := dynloop.BenchmarkByName("gcc")
	if err != nil {
		log.Fatal(err)
	}
	unit, err := bm.Build(1)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "tracereplay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	arch, err := dynloop.OpenTraceArchive(dir)
	if err != nil {
		log.Fatal(err)
	}

	// Record: one execution, one recording.
	rec, err := arch.BeginRecord(bm.Name, 1, unit.Prog)
	if err != nil {
		log.Fatal(err)
	}
	cpu := unit.NewCPU()
	n, err := cpu.Run(1_000_000, rec)
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.Commit(cpu.Halted()); err != nil {
		log.Fatal(err)
	}
	recording, ok := arch.Lookup(bm.Name, 1)
	if !ok {
		log.Fatal("recording not installed")
	}
	fmt.Printf("recorded %d instructions of gcc: %d bytes (%.1f bits/instr)\n\n",
		n, recording.Size(), float64(recording.Size())*8/float64(n))

	// Replay: sweep the table sizes over the SAME recording.
	t := report.NewTable("LET/LIT hit ratios swept over one recorded trace",
		"entries", "LET hit %", "LIT hit %")
	for _, size := range []int{16, 8, 4, 2} {
		det := dynloop.NewDetector(dynloop.DetectorConfig{Capacity: 16})
		tracker := dynloop.NewTableTracker(size, size)
		det.AddObserver(tracker)
		if _, _, err := recording.Replay(0, nil, det); err != nil {
			log.Fatal(err)
		}
		det.Flush()
		let, _ := tracker.LET.HitRatio()
		lit, _ := tracker.LIT.HitRatio()
		t.AddRow(size, 100*let, 100*lit)
	}
	fmt.Print(t.String())
	fmt.Println("\nEvery row came from the same recording — deterministic replay makes")
	fmt.Println("hardware-parameter sweeps exactly repeatable (the paper's Figure 4")
	fmt.Println("methodology).")
}
