package main

// Example pins the program's output: the golden plan of the trending
// trigger (both bodies driven from the window's delta through trend's key)
// and the boards the workflow must end on.
func Example() {
	main()
	// Output:
	// DATAFLOW leaderboard (running)
	//   nodes:
	//     validate             <- votes_in [batch 1] (border)  emits -> good_votes
	//     count                <- good_votes [batch 1] (interior, from validate)
	//   border streams  : votes_in
	//   interior streams: good_votes
	//   EE triggers:
	//     trending ON last20
	//       UPDATE trend (1 assignments)
	//         scan: trend via index trend_pkey (probe from subquery 0)
	//         subquery 0 (materialized once):
	//           SELECT (1 output columns)
	//             scan: inserted (transient batch)
	//       UPDATE trend (1 assignments)
	//         scan: trend via index trend_pkey (probe from subquery 0)
	//         subquery 0 (materialized once):
	//           SELECT (1 output columns)
	//             scan: expired (transient batch)
	//   ordering constraints:
	//     - natural order: border batches execute in per-partition arrival order
	//     - workflow order: triggered executions run before pending border work
	//     - serial execution forced: nodes share writable tables [candidates]
	//   stats: batches=0 triggered=0 latency p50=0s p99=0s
	//
	// eliminated candidate 3 at total=10
	// eliminated candidate 4 at total=20
	// final board:
	//   ada      16
	//   grace    9
	// trending (last 20 valid votes):
	//   ada      13
	//   grace    7
}
