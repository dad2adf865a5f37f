// Package clock is the benchmark's only bridge to the wall clock. The repo's
// nodeterm lint bans time.Now/Since/Sleep everywhere else, so every
// timestamp and every pause the benchmark takes goes through here and each
// read carries its justification.
package clock

import "time"

//itmlint:allow nodeterm the benchmark measures real elapsed time; nothing here feeds a deterministic output
var origin = time.Now()

// Now returns the monotonic wall time elapsed since the process started.
func Now() time.Duration {
	//itmlint:allow nodeterm the benchmark measures real elapsed time; nothing here feeds a deterministic output
	return time.Since(origin)
}

// Sleep pauses the caller: the boot poll interval and nothing else.
func Sleep(d time.Duration) {
	//itmlint:allow nodeterm polling a real process for its first byte needs a real pause
	time.Sleep(d)
}
