package main

// Example runs the quickstart program and checks its whole report, which
// is deterministic for the fixed 64-core ATAC+ machine.
func Example() {
	main()
	// Output:
	// running radix sort on ATAC+ with 64 cores...
	// completed in 161970 cycles (0.162 ms at 1 GHz)
	// retired 45504 instructions, IPC 0.004
	// network: 0.0277 flits/cycle/core offered, 25.6% broadcast deliveries
	// optical link: 7.5% utilized, 108 unicasts per broadcast
	//
	// energy breakdown:
	//   cores:      0.022 mJ (DD 0.001 + NDD 0.021)
	//   caches:     0.003 mJ
	//   network:    0.005 mJ (laser 0.001, mod/rx 0.001, electrical 0.002)
	//
	// energy-delay product: 4.81886e-09 J·s
	// die area: 30.7 mm² (photonics 5.2 mm²)
}
