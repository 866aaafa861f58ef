package buildfiles

import "syscall"

// Stdin is the standard-input handle; the Handle type exists only in
// windows' syscall.
var Stdin syscall.Handle = syscall.Stdin
