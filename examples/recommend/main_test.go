package main

// Example runs the recommendation pipeline end to end, model server
// included: the rankings are deterministic once Sync returns.
func Example() {
	main()
	// Output:
	// Alice has been browsing kitchenware; top recommendations:
	//   item 1029 (kitchen) score 1.025
	//   item 1013 (kitchen) score 1.023
	//   item 1002 (kitchen) score 1.023
	//   item 1004 (kitchen) score 1.022
	//   item 1011 (kitchen) score 1.022
	// Alice switched to camping gear; top recommendations now:
	//   item 1059 (camping) score 1.023
	//   item 1054 (camping) score 1.023
	//   item 1039 (camping) score 1.022
	//   item 1031 (camping) score 1.021
	//   item 1033 (camping) score 1.021
}
