// Technology scenarios: reproduce the Section V-C device-maturity study —
// how laser power gating and athermal ring resonators decide whether the
// nanophotonic network wins (Figs 7 and 9). This is the paper's guidance
// for device researchers: gating + athermal rings matter most; ultra-low
// loss matters least.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)

	campaign := repro.NewCampaign(experiments.Options{Cores: 64, Scale: 1, Seed: 42})

	// Fig 7: uncore energy of the four ATAC+ flavors vs the electrical
	// baselines. Without gating (Cons), the laser burns worst-case
	// broadcast power even when idle; without athermal rings
	// (RingTuned/Cons), ~260K ring heaters burn continuously.
	t7, err := campaign.Figure("7")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t7)

	// Fig 9: with gating + athermal rings in place, moderate waveguide
	// loss is tolerable — ATAC+ stays below EMesh-BCast energy up to
	// ~2 dB of loss.
	t9, err := campaign.Figure("9")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t9)

	// Headline: the energy-delay advantage of ATAC+ (Fig 8).
	t8, avgB, avgP, err := campaign.Fig8()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t8)
	fmt.Printf("E-D vs ATAC+ at this scale: EMesh-BCast %.2fx, EMesh-Pure %.2fx (paper at 1024 cores: 1.8x / 4.8x)\n", avgB, avgP)
}
