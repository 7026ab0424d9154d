// Routing study: reproduce the distance-based routing analysis of
// Sections IV-C and V-E (Figs 3 and 13) at a reduced scale — first the
// synthetic latency-vs-load curves, then the application-level
// energy-delay comparison of the Cluster and Distance-i protocols.
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

	// Part 1 (Fig 3): uniform-random traffic with 0.1% broadcasts.
	// At low load, sending every inter-cluster unicast over the ONet
	// (Cluster) gives the lowest latency; as load rises, larger distance
	// thresholds win by spreading load across the ENet.
	//
	// Part 2 (Fig 13): the same routing choice evaluated end-to-end on
	// the applications, in energy-delay product.
	for _, id := range []string{"3", "13"} {
		tab, err := campaign.Figure(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tab)
	}
}
