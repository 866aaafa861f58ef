// Command app is the fixture's only non-test caller of lib.
package main

import "tianhelint.test/deadcode/internal/lib"

func main() {
	_ = lib.Used() + lib.Run(lib.Config{Size: 1})
	_ = lib.Wrap(nil)
	_ = lib.NewT().String()
}
