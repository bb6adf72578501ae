package main

import (
	"fmt"

	"example.com/fixture/internal/a"
	"example.com/fixture/internal/b"
)

func main() {
	fmt.Println(a.Used(), a.Arch(), b.Value, a.T{})
}
