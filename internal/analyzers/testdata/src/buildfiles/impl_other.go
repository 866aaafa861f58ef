//go:build !amd64 && !arm64 && !386

package buildfiles

import "time"

func impl() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}
