package main

import (
	"sync"
	"time"
)

// openLoop fires n requests on a fixed schedule — request i is due at
// start + i×interval — each on its own goroutine, whether or not earlier
// requests have finished, the way independent users arrive. Callers time
// each request from its due time, so a stall that delays later requests
// (a busy connection, a full queue) is charged to them. It returns how
// late the generator fired each request, and returns once all finished.
func openLoop(start time.Time, interval time.Duration, n int, fire func(i int, due time.Time)) []time.Duration {
	lags := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fire(i, due)
		}(i)
	}
	wg.Wait()
	return lags
}
