package adaptive

import "time"

// nowNanos isolates the single wall-clock dependency of the test suite (the
// overhead sanity check); everything else in the repository runs on virtual
// time.
//
//lint:ignore nowalltime the overhead sanity check must measure real elapsed time, not virtual time
func nowNanos() int64 { return time.Now().UnixNano() }
