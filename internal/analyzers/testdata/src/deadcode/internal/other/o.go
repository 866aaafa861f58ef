// Package other exists for its test, which calls into lib.
package other

func local() {}
