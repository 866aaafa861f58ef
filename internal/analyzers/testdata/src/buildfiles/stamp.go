// Package buildfiles is a tianhelint fixture for file selection: the
// loader must take each directory's files as the go command does. impl is
// declared once per architecture file, so loading a file meant for another
// GOARCH redeclares it; stdin_windows.go only type-checks on windows; and
// x_test.go is an external test package, a second package in the
// directory. Only the one implementation built for the current platform
// carries a finding, and so only its want comment is collected.
package buildfiles

// Stamp returns the platform's timestamp.
func Stamp() int64 { return impl() }
