package buildfiles

import (
	"testing"
	"time"
)

func TestStampIsPast(t *testing.T) {
	if Stamp() > time.Now().UnixNano() { // want "time.Now reads the wall clock"
		t.Fatal("stamp from the future")
	}
}
