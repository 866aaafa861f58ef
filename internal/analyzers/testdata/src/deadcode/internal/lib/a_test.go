package lib

func useFromOwnTest() int {
	OwnTestOnly()
	t := NewT()
	t.Set(3)
	return t.N() + Run(Config{Hook: 1})
}
