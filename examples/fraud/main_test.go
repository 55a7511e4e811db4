package main

// Example runs the fraud check: the risk scores are a deterministic
// function of the seeded transfer stream once Sync returns.
func Example() {
	main()
	// Output:
	// before the attack: mule risk = 0.128
	// after the attack:  mule risk = 0.299
	// top-5 riskiest accounts by live 2-hop neighbourhood:
	//   account   7  risk 0.299  ← the mule
	//   account  43  risk 0.216
	//   account  15  risk 0.210
	//   account  11  risk 0.204
	//   account 186  risk 0.204
}
