// Coherence comparison: reproduce the Section V-F study at a reduced
// scale — ACKwise_k vs Dir_kB across networks (Fig 14) and the ACKwise
// sharer-count sweep (Figs 15 and 16).
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
	campaign.Progress = func(s string) { fmt.Println("  ...", s) }

	// Fig 14: ACKwise acknowledges only actual sharers of a broadcast
	// invalidation; Dir_kB collects an ack from every core, which floods
	// the network around the directory on broadcast-heavy applications.
	tab, err := campaign.Figure("14")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tab)

	// Figs 15/16: runtime barely moves with the hardware sharer count,
	// but directory area and energy grow with it — ACKwise4 delivers
	// full-map performance at a fraction of the cost.
	t15, err := campaign.Figure("15")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t15)
	t16, err := campaign.Figure("16")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(t16)
}
