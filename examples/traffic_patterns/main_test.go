package main

// Example runs the traffic-pattern study and checks its whole report, which
// is deterministic for the fixed machine, load and seed.
func Example() {
	main()
	// Output:
	// pattern     delivered     mean      p50      p95      p99
	// uniform         20181      9.0       10       12       14
	// transpose       19062      8.1        9       13       15
	// bitcomp         19062     10.2       10       13       15
	// neighbor        19062      3.8        3       10       11
	// tornado         19062     10.6       10       14       16
	// hotspot         18996      9.0       10       13       14
	//
	// hotspot ENet congestion (hottest router (0,4): 1673 flits):
	// .-:-:-:-
	// :=:+:+:=
	// :-:-:-:-
	// -=:=:+:=
	// #=:-:-:-
	// -+:=:=:=
	// :-:-:-:-
	// .=:=:=.=
}
