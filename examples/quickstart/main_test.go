package main

// Example runs the quickstart: its output is deterministic once Sync
// returns, so a change in what the cache serves shows up as a diff here.
func Example() {
	main()
	// Output:
	// initial 2-hop sample for Alice:
	//   hop-1 items: [100 101]
	//   hop-2: item 100 co-purchased with 102 (ts 3)
	//   hop-2: item 101 co-purchased with 103 (ts 4)
	//   feature[1] = [0.9 0.1]
	//   feature[100] = [0 1]
	//   feature[101] = [1 1]
	//   feature[102] = [2 1]
	//   feature[103] = [3 1]
	// after a new click (event-driven pre-sampling updated the cache):
	//   hop-1 items: [102 101]
	//   hop-2: item 101 co-purchased with 103 (ts 4)
	//   feature[1] = [0.9 0.1]
	//   feature[101] = [1 1]
	//   feature[102] = [2 1]
	//   feature[103] = [3 1]
	// stats: ingested=10 snapshotsPushed=5 featuresPushed=5 cacheBytes=488
}
