package buildfiles_test

import (
	"time"

	"tianhelint.test/buildfiles"
)

// The external test package is not loaded: this read has no want comment.
var elapsed = time.Now().UnixNano() - buildfiles.Stamp()
