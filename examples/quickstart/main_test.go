package main

// Example pins the program's output. The rolling average is computed by a
// trigger body that reads NEW, so it is right only if NEW still holds the
// whole post-slide window: (69 + 73 + 95 + 97 + 74) / 5.
func Example() {
	main()
	// Output:
	// rolling average over last 5 readings: 81.6
	// ALARM at t=5: 95 degrees
	// ALARM at t=6: 97 degrees
}
