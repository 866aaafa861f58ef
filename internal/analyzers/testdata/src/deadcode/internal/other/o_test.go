package other

import "tianhelint.test/deadcode/internal/lib"

func useFromOtherTest() {
	local()
	lib.Shared()
}
