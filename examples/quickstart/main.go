// Quickstart: build a 64-core machine, run one application under both
// protocols, and print the headline comparison — the minimal use of the
// public API.
package main

import (
	"fmt"
	"log"

	widir "repro"
)

func main() {
	app, ok := widir.App("radiosity")
	if !ok {
		log.Fatal("quickstart: application not found")
	}
	app = app.Scale(0.5) // keep the demo quick

	cfg := widir.DefaultConfig(64, widir.Baseline)
	cmp, err := widir.Compare(cfg, app, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("application:      %s on %d cores\n", cmp.App, cfg.Nodes)
	fmt.Printf("baseline:         %d cycles, %.2f MPKI\n", cmp.Base.Cycles, cmp.Base.MPKI())
	fmt.Printf("widir:            %d cycles, %.2f MPKI\n", cmp.WiDir.Cycles, cmp.WiDir.MPKI())
	fmt.Printf("speedup:          %.2fx (time ratio %.3f)\n", cmp.Speedup(), cmp.TimeRatio())
	fmt.Printf("wireless writes:  %d (S->W transitions: %d, W->S: %d)\n",
		cmp.WiDir.WirelessWrites, cmp.WiDir.SToW, cmp.WiDir.WToS)
	fmt.Printf("collision prob.:  %.2f%%\n", 100*cmp.WiDir.CollisionProb)
	fmt.Printf("energy ratio:     %.3f (WNoC share %.1f%%)\n",
		cmp.WiDir.EnergyPJ/cmp.Base.EnergyPJ, 100*cmp.WiDir.Energy.Share("WNoC"))
}
